package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/androzoo"
	"repro/internal/apk"
	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/decompiler"
	"repro/internal/javaparser"
	"repro/internal/pipeline"
	"repro/internal/playstore"
	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/retry"
	"repro/internal/sdkindex"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

// Corpus scales of the static workloads. 200 is cmd/staticscan's default;
// 20 makes the in-memory workloads analyse ten times as many APKs.
const (
	scanScale    = 200
	analyzeScale = 20
	// staticRetries is cmd/staticscan's default -retries.
	staticRetries = 3
)

// staticWorkload runs core.StaticStudy with the lint and URL stages and
// renders the static tables. scan fetches from loopback AndroZoo and Play
// Store servers; analyze reads pre-built images and metadata from memory
// and keeps a persistent result cache over an in-memory blob store (the
// checkout's disk would time the filesystem, not the cache).
type staticWorkload struct {
	name  string
	scale int
	c     *corpus.Corpus
	// want is the funnel the generated specs imply; planted holds the
	// endpoints every analysed app must yield.
	want    pipeline.Funnel
	planted map[string][]corpus.PlantedEndpoint

	// scan: loopback servers and their meters.
	az, ps         *httptest.Server
	azMeter, psMet *serveMeter
	// analyze: in-memory sources.
	mem *memSources

	// golden is the first job's rendered tables.
	golden string

	generateS, buildS float64
}

func newStatic(cfg config) (*staticWorkload, error) {
	w := &staticWorkload{name: cfg.workload, scale: analyzeScale}
	if w.name == "scan" {
		w.scale = scanScale
	}
	if cfg.scale > 0 {
		w.scale = cfg.scale
	}
	start := time.Now()
	c, err := corpus.Generate(corpus.Config{Seed: cfg.seed, Scale: w.scale})
	if err != nil {
		return nil, err
	}
	w.generateS = time.Since(start).Seconds()
	w.c = c
	w.want, w.planted = groundTruth(c)

	if w.name == "scan" {
		w.azMeter, w.psMet = &serveMeter{layer: "androzoo"}, &serveMeter{layer: "playstore"}
		w.az = w.azMeter.start(androzoo.NewServer(c).Handler())
		w.ps = w.psMet.start(playstore.NewServer(c).Handler())
		return w, nil
	}

	start = time.Now()
	if w.mem, err = buildMemSources(c); err != nil {
		return nil, err
	}
	w.buildS = time.Since(start).Seconds()
	return w, nil
}

// groundTruth derives the Table 2 funnel and the planted endpoints from
// the generated specs alone, independently of the pipeline.
func groundTruth(c *corpus.Corpus) (pipeline.Funnel, map[string][]corpus.PlantedEndpoint) {
	f := pipeline.Funnel{Snapshot: len(c.Apps)}
	planted := map[string][]corpus.PlantedEndpoint{}
	for _, s := range c.Apps {
		if !s.OnPlayStore {
			continue
		}
		f.OnPlay++
		if s.Downloads < corpus.MinDownloads {
			continue
		}
		f.Popular++
		if !s.LastUpdated.After(corpus.UpdateCutoff) {
			continue
		}
		f.Filtered++
		if s.Broken {
			f.Broken++
			continue
		}
		planted[s.Package] = s.Endpoints
	}
	f.Analyzed = f.Filtered - f.Broken
	return f, planted
}

// memSources serves pre-built APK images and store metadata from memory,
// so the study's time goes to analysis and the cache rather than to
// corpus synthesis or networking.
type memSources struct {
	pkgs []string
	imgs map[string][]byte
	md   map[string]playstore.Metadata
}

func buildMemSources(c *corpus.Corpus) (*memSources, error) {
	m := &memSources{
		pkgs: make([]string, 0, len(c.Apps)),
		imgs: map[string][]byte{},
		md:   map[string]playstore.Metadata{},
	}
	for _, s := range c.Apps {
		m.pkgs = append(m.pkgs, s.Package)
		if s.OnPlayStore {
			m.md[s.Package] = playstore.Metadata{
				Package: s.Package, Title: s.Title, Category: s.PlayCategory,
				Downloads: s.Downloads, LastUpdated: s.LastUpdated,
			}
		}
		if s.Eligible(corpus.MinDownloads, corpus.UpdateCutoff) {
			img, err := corpus.BuildAPK(s)
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", s.Package, err)
			}
			m.imgs[s.Package] = img
		}
	}
	return m, nil
}

func (m *memSources) List(ctx context.Context) ([]string, error) { return m.pkgs, nil }

func (m *memSources) Download(ctx context.Context, pkg string) ([]byte, error) {
	img, ok := m.imgs[pkg]
	if !ok {
		return nil, fmt.Errorf("no image for %s", pkg)
	}
	return img, nil
}

func (m *memSources) Metadata(ctx context.Context, pkg string) (playstore.Metadata, error) {
	md, ok := m.md[pkg]
	if !ok {
		return md, playstore.ErrNotFound
	}
	return md, nil
}

// staticDetail is what a static job hands to check and layers.
type staticDetail struct {
	res        *core.StaticResult
	cached     bool
	psConns    int64
	azConns    int64
	downloaded *imageLog
}

func (w *staticWorkload) job(rec *recorder) (*jobOutcome, error) {
	if w.mem != nil {
		// A fresh store per job: every analysis is written.
		return w.runStudy(rec, resultcache.NewMemStore())
	}
	return w.runStudy(rec, nil)
}

// runStudy runs one static study as cmd/staticscan does — the default
// retry policy, the lint and URL stages, and with a store a persistent
// cache over it with the default codec — and renders its tables.
func (w *staticWorkload) runStudy(rec *recorder, store *resultcache.MemStore) (*jobOutcome, error) {
	root := rec.begin("job", 0)
	run := rec.begin("pipeline.run", root.id)
	d := &staticDetail{cached: store != nil, downloaded: &imageLog{}}

	policy := &retry.Policy{MaxAttempts: staticRetries + 1, Metrics: &retry.Metrics{}}
	var repo pipeline.Repository = w.mem
	var meta pipeline.MetadataSource = w.mem
	if w.az != nil {
		repo = androzoo.NewClient(w.az.URL, w.az.Client()).WithRetry(policy)
		meta = playstore.NewClient(w.ps.URL, w.ps.Client()).WithRetry(policy)
		w.azMeter.rec.Store(rec)
		w.psMet.rec.Store(rec)
		defer w.azMeter.rec.Store(nil)
		defer w.psMet.rec.Store(nil)
		az0, ps0 := w.azMeter.conns.Load(), w.psMet.conns.Load()
		defer func() {
			d.azConns = w.azMeter.conns.Load() - az0
			d.psConns = w.psMet.conns.Load() - ps0
		}()
	}
	if rec != nil {
		repo = &tracedRepo{inner: repo, rec: rec, parent: run.id, log: d.downloaded}
		meta = &tracedMeta{inner: meta, rec: rec, parent: run.id}
	}
	cfg := core.StaticConfig{Lint: true, URLs: true, Retry: policy}
	if store != nil {
		var blobs resultcache.BlobStore = store
		if rec != nil {
			blobs = &tracedStore{inner: store, rec: rec, parent: run.id}
		}
		cfg.Cache = resultcache.NewPersistent[pipeline.Analysis](0, blobs, nil)
	}
	study, err := core.NewStaticStudy(repo, meta, cfg)
	if err != nil {
		return nil, err
	}
	res, err := study.Run(context.Background())
	run.end()
	if err != nil {
		return nil, err
	}
	d.res = res

	render := rec.begin("report.render", root.id)
	rendered := w.render(res)
	render.end()
	root.end()
	return &jobOutcome{
		rendered: rendered, ops: res.Funnel.Snapshot, failedOps: len(res.Quarantined), detail: d,
	}, nil
}

// render prints the tables cmd/staticscan prints with -lint -urls.
func (w *staticWorkload) render(res *core.StaticResult) string {
	var sb strings.Builder
	sb.WriteString(report.Table2(res.Funnel, w.scale))
	sb.WriteString(report.Table3(res.Aggregates))
	sb.WriteString(report.TopSDKTable(res.Aggregates, false, w.scale))
	sb.WriteString(report.TopSDKTable(res.Aggregates, true, w.scale))
	sb.WriteString(report.Table7(res.Aggregates, w.scale))
	sb.WriteString(report.Figure3(res.Aggregates))
	sb.WriteString(report.Figure4(res.Aggregates))
	sb.WriteString(report.LintTable(res.Aggregates))
	sb.WriteString(report.URLTable(res.Apps))
	return sb.String()
}

func (w *staticWorkload) check(o *jobOutcome) error {
	if err := w.checkRun(o.detail.(*staticDetail).res); err != nil {
		return err
	}
	if w.golden == "" {
		w.golden = o.rendered
	} else if o.rendered != w.golden {
		return fmt.Errorf("rendered tables differ from the run's first job")
	}
	return nil
}

// checkRun verifies one study against the ground truth: the funnel, no
// quarantines or retries, and every planted endpoint recovered.
func (w *staticWorkload) checkRun(res *core.StaticResult) error {
	if res.Funnel != w.want {
		return fmt.Errorf("funnel %+v, want %+v", res.Funnel, w.want)
	}
	if n := len(res.Quarantined); n > 0 {
		return fmt.Errorf("%d packages quarantined, first %+v", n, res.Quarantined[0])
	}
	if res.Stats.Retries != 0 {
		return fmt.Errorf("%d retries; backoff sleeps would be timed", res.Stats.Retries)
	}
	if len(res.Apps) != len(w.planted) {
		return fmt.Errorf("%d apps analysed, want %d", len(res.Apps), len(w.planted))
	}
	for i := range res.Apps {
		app := &res.Apps[i]
		planted, ok := w.planted[app.Package]
		if !ok {
			return fmt.Errorf("unexpected app %s in the results", app.Package)
		}
		got := make(map[string]bool, len(app.Endpoints))
		for _, ep := range app.Endpoints {
			got[endpointKey(ep.Class, ep.Method, ep.API, ep.Kind, ep.URL)] = true
		}
		for _, p := range planted {
			if !got[endpointKey(p.Class, p.Method, p.API, p.Kind, p.URL)] {
				return fmt.Errorf("%s: planted endpoint %+v not recovered", app.Package, p)
			}
		}
	}
	return nil
}

func endpointKey(class, method, api, kind, url string) string {
	return class + "|" + method + "|" + api + "|" + kind + "|" + url
}

func (w *staticWorkload) close() {
	if w.az != nil {
		w.az.Close()
		w.ps.Close()
	}
}

// layers derives the per-layer metrics of one traced static job.
func (w *staticWorkload) layers(o *jobOutcome, rec *recorder) map[string]float64 {
	d := o.detail.(*staticDetail)
	res := d.res
	m := map[string]float64{"corpus.generate_s": w.generateS, "corpus.build_s": w.buildS}
	ps := statsOf(rec.named("playstore.metadata"))
	az := statsOf(append(rec.named("androzoo.list"), rec.named("androzoo.download")...))
	for _, l := range []struct {
		name  string
		st    durStats
		conns int64
	}{{"playstore", ps, d.psConns}, {"androzoo", az, d.azConns}} {
		m[l.name+".calls"] = float64(l.st.n)
		m[l.name+".busy_s"] = l.st.sumS
		m[l.name+".p50_us"] = l.st.quantile(0.50)
		m[l.name+".p99_us"] = l.st.quantile(0.99)
		if l.st.n > 0 {
			m[l.name+".conns_per_call"] = float64(l.conns) / float64(l.st.n)
		}
		m[l.name+".serve_s"] = statsOf(rec.named(l.name + ".serve")).sumS
	}
	m["androzoo.mb"] = float64(az.bytes) / (1 << 20)

	self := rec.selfTimes()
	run := rec.named("pipeline.run")[0]
	m["pipeline.run_s"] = run.dur().Seconds()
	m["pipeline.self_s"] = self[run.id].Seconds()
	m["pipeline.entries"] = float64(res.Funnel.Snapshot)
	m["pipeline.analyzed"] = float64(res.Funnel.Analyzed)
	m["pipeline.quarantined"] = float64(len(res.Quarantined))
	m["pipeline.retries"] = float64(res.Stats.Retries)
	m["pipeline.peak_inflight_kb"] = float64(res.Stats.PeakInFlightBytes) / 1024

	if lookups := res.Stats.CacheHits + res.Stats.CacheMisses; lookups > 0 {
		m["resultcache.hit_rate"] = float64(res.Stats.CacheHits) / float64(lookups)
	}
	loads, stores := statsOf(rec.named("resultcache.load")), statsOf(rec.named("resultcache.store"))
	m["resultcache.loads"] = float64(loads.n)
	m["resultcache.load_s"] = loads.sumS
	m["resultcache.stores"] = float64(stores.n)
	m["resultcache.store_s"] = stores.sumS
	m["resultcache.blob_mb"] = float64(loads.bytes+stores.bytes) / (1 << 20)
	m["report.render_s"] = statsOf(rec.named("report.render")).sumS
	return m
}

// analysisParts names the spans of the per-APK replay, in pipeline order.
var analysisParts = []string{
	"apk.open", "decompiler.decompile", "javaparser.parse", "callgraph.build",
	"callgraph.usage", "webviewlint.analyze", "urlextract.extract",
}

// replay re-runs, one APK at a time, the analysis the traced job did:
// pipeline.AnalyzeAndExtract as a whole, then its parts through their
// public entry points, each timed and its heap allocation counted; with a
// cache, the digest its key needs comes first. It runs after the job,
// alone, so the process-wide allocation counter belongs to the part being
// timed.
func (w *staticWorkload) replay(o *jobOutcome, rec *recorder) map[string]float64 {
	d := o.detail.(*staticDetail)
	idx := sdkindex.Default()
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		return nil
	}
	ex := urlextract.New(urlextract.Config{})

	root := rec.begin("replay", 0)
	for _, img := range d.downloaded.sorted() {
		one := rec.begin("replay.apk", root.id)
		if d.cached {
			sp := rec.begin("apk.digest", one.id)
			apk.ComputeDigest(img)
			sp.end()
		}
		sp := rec.begin("pipeline.analyze", one.id)
		pipeline.AnalyzeAndExtract(idx, lint, ex, img)
		sp.end()
		replayParts(rec, one.id, idx, lint, ex, img)
		one.end()
	}
	root.end()

	m := map[string]float64{"apk.digest_s": statsOf(rec.named("apk.digest")).sumS}
	unit := statsOf(rec.named("pipeline.analyze"))
	m["pipeline.analyze_p50_us"] = unit.quantile(0.50)
	m["pipeline.analyze_p99_us"] = unit.quantile(0.99)
	for _, part := range analysisParts {
		st := statsOf(rec.named(part))
		m[part+"_s"] = st.sumS
		m[part+"_mb"] = st.allocMB
	}
	return m
}

// replayParts runs the parts of the per-APK analysis in pipeline order,
// one span each; the parse span covers every unit of the APK.
func replayParts(rec *recorder, parent int64, idx *sdkindex.Index, lint *webviewlint.Analyzer, ex *urlextract.Extractor, img []byte) {
	part := func(name string, fn func()) {
		a0 := heapAllocated()
		sp := rec.begin(name, parent)
		fn()
		sp.endWith(0, heapAllocated()-a0)
	}
	var a *apk.APK
	var err error
	part("apk.open", func() { a, err = apk.Open(img) })
	if err != nil {
		return
	}
	var units []decompiler.Unit
	part("decompiler.decompile", func() { units = decompiler.Decompile(a.Dex) })
	parsed := make([]*javaparser.CompilationUnit, 0, len(units))
	part("javaparser.parse", func() {
		for _, u := range units {
			cu, perr := javaparser.Parse(u.Source)
			if perr != nil {
				err = perr
				return
			}
			parsed = append(parsed, cu)
		}
	})
	if err != nil {
		return
	}
	excl := map[string]bool{}
	for _, dl := range a.Manifest.DeepLinkActivities() {
		excl[dl] = true
	}
	var g *callgraph.Graph
	part("callgraph.build", func() { g = callgraph.Build(a.Dex) })
	part("callgraph.usage", func() { g.AnalyzeUsage(excl) })
	part("webviewlint.analyze", func() { lint.Analyze(webviewlint.App{Units: parsed, Graph: g, Index: idx}) })
	part("urlextract.extract", func() { ex.Extract(g, excl, idx) })
}

// imageLog keeps the images a traced job downloaded, for the replay.
type imageLog struct {
	mu   sync.Mutex
	imgs map[string][]byte
}

func (l *imageLog) add(pkg string, img []byte) {
	l.mu.Lock()
	if l.imgs == nil {
		l.imgs = map[string][]byte{}
	}
	l.imgs[pkg] = img
	l.mu.Unlock()
}

// sorted returns the images in package order.
func (l *imageLog) sorted() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	pkgs := make([]string, 0, len(l.imgs))
	for p := range l.imgs {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	out := make([][]byte, len(pkgs))
	for i, p := range pkgs {
		out[i] = l.imgs[p]
	}
	return out
}

// tracedRepo records a span around every call into the Repository the
// study is given.
type tracedRepo struct {
	inner  pipeline.Repository
	rec    *recorder
	parent int64
	log    *imageLog
}

func (r *tracedRepo) List(ctx context.Context) ([]string, error) {
	sp := r.rec.begin("androzoo.list", r.parent)
	r.rec.enter("androzoo/snapshot", sp.id)
	pkgs, err := r.inner.List(ctx)
	r.rec.leave("androzoo/snapshot")
	sp.end()
	return pkgs, err
}

func (r *tracedRepo) Download(ctx context.Context, pkg string) ([]byte, error) {
	sp := r.rec.begin("androzoo.download", r.parent)
	key := "androzoo/" + pkg
	r.rec.enter(key, sp.id)
	img, err := r.inner.Download(ctx, pkg)
	r.rec.leave(key)
	sp.endWith(int64(len(img)), 0)
	if err == nil {
		r.log.add(pkg, img)
	}
	return img, err
}

// tracedMeta records a span around every call into the MetadataSource.
type tracedMeta struct {
	inner  pipeline.MetadataSource
	rec    *recorder
	parent int64
}

func (m *tracedMeta) Metadata(ctx context.Context, pkg string) (playstore.Metadata, error) {
	sp := m.rec.begin("playstore.metadata", m.parent)
	key := "playstore/" + pkg
	m.rec.enter(key, sp.id)
	md, err := m.inner.Metadata(ctx, pkg)
	m.rec.leave(key)
	sp.end()
	return md, err
}

// tracedStore records a span around every call into the cache's
// BlobStore, with the blob bytes moved.
type tracedStore struct {
	inner  *resultcache.MemStore
	rec    *recorder
	parent int64
}

func (s *tracedStore) Load(key string) ([]byte, bool, error) {
	sp := s.rec.begin("resultcache.load", s.parent)
	b, ok, err := s.inner.Load(key)
	sp.endWith(int64(len(b)), 0)
	return b, ok, err
}

func (s *tracedStore) Store(key string, blob []byte) error {
	sp := s.rec.begin("resultcache.store", s.parent)
	err := s.inner.Store(key, blob)
	sp.endWith(int64(len(blob)), 0)
	return err
}

// Delete keeps the store's purge-on-corrupt path available to the cache.
func (s *tracedStore) Delete(key string) error { return s.inner.Delete(key) }

// serveMeter counts a loopback server's new connections and, during a
// traced job, times its handler from outside.
type serveMeter struct {
	layer string
	conns atomic.Int64
	rec   atomic.Pointer[recorder]
}

// start serves h on a loopback httptest server, counting every new
// connection through the server's ConnState hook.
func (m *serveMeter) start(h http.Handler) *httptest.Server {
	srv := httptest.NewUnstartedServer(m.wrap(h))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			m.conns.Add(1)
		}
	}
	srv.Start()
	return srv
}

func (m *serveMeter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := m.rec.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := rec.begin(m.layer+".serve", rec.caller(m.layer+"/"+path.Base(r.URL.Path)))
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		sp.endWith(cw.n, 0)
	})
}

// countingWriter counts the response body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
