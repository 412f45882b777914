package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/adb"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/crux"
	"repro/internal/device"
	"repro/internal/internet"
	"repro/internal/jsvm"
	"repro/internal/pageload"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// Sizes of the dynamic workload: cmd/dynprobe's defaults (scale 100, the
// top 1,000 apps) and cmd/crawlsites' (100 sites, a Facebook rate limit of
// 40 clicks), crawled by two workers on one device.
const (
	dynamicScale   = 100
	dynamicTop     = 1000
	crawlSites     = 100
	crawlRateLimit = 40
	crawlWorkers   = 2
	// figure7Requests is cmd/loadtime's default -requests.
	figure7Requests = 12
	// paperIABs is the paper's count of WebView-based IABs among the top
	// apps.
	paperIABs = 10
)

// dynamicWorkload runs the dynamic study: Table 6 over the top apps,
// Tables 8/9 over the WebView IABs found, the Figure 6 crawl and Figure 7.
type dynamicWorkload struct {
	c     *corpus.Corpus
	specs []*corpus.Spec
	sites []crux.Site
	// wantIABs is the expected Table 6 WebView-IAB count and Table 8 size.
	wantIABs int
	golden   string
	// jsvm receives the script engine's counters in a traced run.
	jsvm      *telemetry.Hub
	generateS float64
}

func newDynamic(cfg config) (*dynamicWorkload, error) {
	start := time.Now()
	c, err := corpus.Generate(corpus.Config{Seed: cfg.seed, Scale: dynamicScale})
	if err != nil {
		return nil, err
	}
	w := &dynamicWorkload{c: c, specs: c.Top(dynamicTop), wantIABs: paperIABs, generateS: time.Since(start).Seconds()}
	n := crawlSites
	if cfg.sites > 0 {
		n = cfg.sites
	}
	w.sites = crux.TopSites(n)
	if cfg.trace {
		w.jsvm = telemetry.New(telemetry.Options{})
		jsvm.Instrument(w.jsvm)
	}
	return w, nil
}

// dynamicDetail is what a dynamic job hands to check and layers.
type dynamicDetail struct {
	t6    *core.Table6
	rows  []core.Table8Row
	crawl *crawler.Result
	apps  int
	// jsvm counter deltas over the job (traced runs only).
	jsHits, jsMisses, jsExecutes int64
}

func (w *dynamicWorkload) job(rec *recorder) (*jobOutcome, error) {
	ctx := context.Background()
	d := &dynamicDetail{}
	js0 := w.jsvmCounts()
	root := rec.begin("job", 0)

	// Table 6, then Tables 8/9 over the WebView IABs it found, wired as
	// cmd/dynprobe wires them (one device, one worker).
	study := core.NewDynamicStudyFleet(1, 1)
	sp := rec.begin("core.classify", root.id)
	t6, err := study.ClassifyTopApps(ctx, w.specs)
	sp.end()
	if err != nil {
		return nil, err
	}
	d.t6 = t6
	var iabSpecs []*corpus.Spec
	for _, pkg := range t6.WebViewIABApps {
		if spec := w.c.AppByPackage(pkg); spec != nil {
			iabSpecs = append(iabSpecs, spec)
		}
	}
	sp = rec.begin("core.probe", root.id)
	rows, _, err := study.ProbeIABs(ctx, iabSpecs)
	sp.end()
	if err != nil {
		return nil, err
	}
	d.rows = rows

	if d.crawl, d.apps, err = w.crawl(rec, root.id); err != nil {
		return nil, err
	}

	render := rec.begin("report.render", root.id)
	var sb strings.Builder
	sb.WriteString(report.Table6(t6))
	sb.WriteString(report.Table8(rows))
	sb.WriteString(report.Table9(rows))
	sb.WriteString(report.Figure6(d.crawl, "com.linkedin.android", "LinkedIn"))
	sb.WriteString(report.Figure6(d.crawl, "kik.android", "Kik"))
	sb.WriteString(report.Figure6(d.crawl, core.BaselineShellSpec().Package, "System WebView Shell (baseline)"))
	sb.WriteString(report.Figure7(pageload.Default(), figure7Requests))
	render.end()
	root.end()

	js1 := w.jsvmCounts()
	d.jsHits, d.jsMisses, d.jsExecutes = js1[0]-js0[0], js1[1]-js0[1], js1[2]-js0[2]
	return &jobOutcome{
		rendered:  sb.String(),
		ops:       len(d.crawl.Visits) + len(d.crawl.Failures),
		failedOps: len(d.crawl.Failures),
		detail:    d,
	}, nil
}

// crawl runs the Figure 6 crawl as cmd/crawlsites does: the ten WebView
// IABs and the baseline shell installed on one device, an adb farm, one
// lane connection per app. In a traced job each lane talks to its device
// through a timing proxy.
func (w *dynamicWorkload) crawl(rec *recorder, parent int64) (*crawler.Result, int, error) {
	net := internet.New()
	crux.RegisterAll(net, w.sites)
	fleet := device.NewFleet(net, 1)
	var apps []string
	for i := range corpus.NamedApps {
		n := &corpus.NamedApps[i]
		if n.Dynamic.LinkOpens != corpus.LinkWebView {
			continue
		}
		spec := &corpus.Spec{Package: n.Package, Title: n.Title, Downloads: n.Downloads,
			OnPlayStore: true, Dynamic: n.Dynamic}
		if err := fleet.Install(spec); err != nil {
			return nil, 0, err
		}
		apps = append(apps, n.Package)
	}
	baseline := core.BaselineShellSpec()
	if err := fleet.Install(baseline); err != nil {
		return nil, 0, err
	}
	apps = append(apps, baseline.Package)

	farm, err := adb.StartFarm(fleet.Devices, adb.FarmConfig{
		RateLimits: map[string]int{"com.facebook.katana": crawlRateLimit},
	})
	if err != nil {
		return nil, 0, err
	}
	defer farm.Close()

	run := rec.begin("crawler.run", parent)
	var clients []*adb.Client
	if rec == nil {
		clients, err = farm.LaneClients(len(apps))
	} else {
		var proxies *laneProxies
		proxies, err = proxyLanes(farm, len(apps), rec, run.id)
		if proxies != nil {
			clients = proxies.clients
			defer proxies.close()
		}
	}
	if err != nil {
		return nil, 0, err
	}
	cr := crawler.NewFleet(clients, crawler.Config{
		Apps: apps, Sites: w.sites, Workers: crawlWorkers,
		OwnDomains: map[string][]string{"com.linkedin.android": {"linkedin.com", "licdn.com"}},
	})
	res, err := cr.Run()
	run.end()
	return res, len(apps), err
}

// jsvmCounts reads the script engine's program-cache hits and misses and
// its executions (zeros outside a traced run).
func (w *dynamicWorkload) jsvmCounts() [3]int64 {
	if w.jsvm == nil {
		return [3]int64{}
	}
	const cache = "program-cache lookups by result"
	return [3]int64{
		w.jsvm.Counter("jsvm_program_cache_total", cache, "result", "hit").Value(),
		w.jsvm.Counter("jsvm_program_cache_total", cache, "result", "miss").Value(),
		w.jsvm.Counter("jsvm_execute_total", "program executions (both engines)").Value(),
	}
}

func (w *dynamicWorkload) check(o *jobOutcome) error {
	d := o.detail.(*dynamicDetail)
	if d.t6.OpensWebView != w.wantIABs {
		return fmt.Errorf("Table 6 found %d WebView IABs, want %d", d.t6.OpensWebView, w.wantIABs)
	}
	if len(d.rows) != w.wantIABs {
		return fmt.Errorf("Table 8 has %d rows, want %d", len(d.rows), w.wantIABs)
	}
	if n := len(d.crawl.Failures); n > 0 {
		return fmt.Errorf("%d crawl visits failed, first: %s", n, d.crawl.Failures[0])
	}
	if want := d.apps * len(w.sites); len(d.crawl.Visits) != want {
		return fmt.Errorf("crawl made %d visits, want %d", len(d.crawl.Visits), want)
	}
	if w.golden == "" {
		w.golden = o.rendered
	} else if o.rendered != w.golden {
		return fmt.Errorf("rendered tables differ from the run's first job")
	}
	return nil
}

func (w *dynamicWorkload) layers(o *jobOutcome, rec *recorder) map[string]float64 {
	d := o.detail.(*dynamicDetail)
	m := map[string]float64{
		"corpus.generate_s": w.generateS,
		"core.classify_s":   statsOf(rec.named("core.classify")).sumS,
		"core.probe_s":      statsOf(rec.named("core.probe")).sumS,
		"crawler.run_s":     statsOf(rec.named("crawler.run")).sumS,
		"report.render_s":   statsOf(rec.named("report.render")).sumS,
		"crawler.visits":    float64(len(d.crawl.Visits)),
		"crawler.failures":  float64(len(d.crawl.Failures)),
		"adb.commands":      float64(len(rec.named("adb.command"))),
		"jsvm.executes":     float64(d.jsExecutes),
	}
	traces := 0
	for _, r := range d.rows {
		traces += len(r.WebAPITraces)
	}
	m["measure.traces"] = float64(traces)
	resets := 0
	for _, n := range d.crawl.AccountResets {
		resets += n
	}
	m["crawler.account_resets"] = float64(resets)
	for _, phase := range []string{"post", "click", "pageload", "netlog", "cleanup"} {
		m["adb."+phase+"_p50_us"] = statsOf(rec.named("adb." + phase)).quantile(0.50)
	}
	m["adb.click_p99_us"] = statsOf(rec.named("adb.click")).quantile(0.99)
	if lookups := d.jsHits + d.jsMisses; lookups > 0 {
		m["jsvm.cache_hit_rate"] = float64(d.jsHits) / float64(lookups)
	}
	return m
}

// replay has nothing to do: the dynamic study analyses no APKs.
func (w *dynamicWorkload) replay(*jobOutcome, *recorder) map[string]float64 { return nil }

func (w *dynamicWorkload) close() {}
