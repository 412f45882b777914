// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark measures the work that produces one artefact
// and prints the rendered artefact once (measured values next to the
// paper's, scaled to the corpus size), so `go test -bench=. -benchmem`
// doubles as the full experiment harness.
//
// Scales: the static corpus runs at 1/600 of the paper's population (the
// shape-carrying top SDKs all remain well-sampled); the dynamic studies
// run at the paper's own size (the top-1K apps, the 10 IABs, a 30-site
// crawl standing in for the 100-site one — bump -crawlsites to 100 to
// match exactly).
package repro

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/adb"
	"repro/internal/androzoo"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/crux"
	"repro/internal/faults"
	"repro/internal/pageload"
	"repro/internal/pipeline"
	"repro/internal/playstore"
	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/retry"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

var (
	staticScale = flag.Int("staticscale", 600, "corpus divisor for static benches")
	crawlSites  = flag.Int("crawlsites", 30, "sites crawled in the Figure 6 bench")
)

// --- shared fixtures -----------------------------------------------------

type staticFixture struct {
	corpus *corpus.Corpus
	repo   *androzoo.Client
	meta   *playstore.Client
	study  *core.StaticStudy
	result *core.StaticResult
	close  func()
}

var (
	staticOnce sync.Once
	staticFix  *staticFixture
)

// staticSetup builds the corpus, services and one canonical pipeline run.
func staticSetup(b *testing.B) *staticFixture {
	b.Helper()
	staticOnce.Do(func() {
		c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: *staticScale})
		if err != nil {
			panic(err)
		}
		azSrv := httptest.NewServer(androzoo.NewServer(c).Handler())
		psSrv := httptest.NewServer(playstore.NewServer(c).Handler())
		repo := androzoo.NewClient(azSrv.URL, azSrv.Client())
		meta := playstore.NewClient(psSrv.URL, psSrv.Client())
		study, err := core.NewStaticStudy(repo, meta, core.StaticConfig{})
		if err != nil {
			panic(err)
		}
		res, err := study.Run(context.Background())
		if err != nil {
			panic(err)
		}
		staticFix = &staticFixture{
			corpus: c,
			repo:   repo,
			meta:   meta,
			study:  study,
			result: res,
			close:  func() { azSrv.Close(); psSrv.Close() },
		}
	})
	return staticFix
}

var printOnce sync.Map

// emit prints a rendered artefact exactly once across all benchmarks.
func emit(key, artefact string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Print(artefact)
	}
}

// --- Table 2: dataset funnel --------------------------------------------

// BenchmarkTable2DatasetFunnel measures a full pipeline run — snapshot
// fetch, metadata filter, APK download, decompile, parse, call-graph
// traversal and labeling — the work behind Table 2.
func BenchmarkTable2DatasetFunnel(b *testing.B) {
	fix := staticSetup(b)
	emit("table2", report.Table2(fix.result.Funnel, *staticScale))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fix.study.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.Funnel.Analyzed != fix.corpus.Counts.Analyzed {
			b.Fatalf("funnel drifted: %+v", res.Funnel)
		}
	}
}

// --- Tables 3/4/5/7, Figures 3/4: aggregation over the pipeline run ------

func benchAggregate(b *testing.B, key string, render func(*core.StaticResult) string) {
	fix := staticSetup(b)
	emit(key, render(fix.result))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := &pipeline.Result{Funnel: fix.result.Funnel, Apps: fix.result.Apps}
		ag := pipeline.Aggregate(raw)
		if ag.Analyzed == 0 {
			b.Fatal("empty aggregation")
		}
		_ = render(&core.StaticResult{Funnel: raw.Funnel, Apps: raw.Apps, Aggregates: ag})
	}
}

// BenchmarkTable3SDKTypeCounts regenerates the SDK matrix (Table 3).
func BenchmarkTable3SDKTypeCounts(b *testing.B) {
	benchAggregate(b, "table3", func(r *core.StaticResult) string {
		return report.Table3(r.Aggregates)
	})
}

// BenchmarkTable4TopWebViewSDKs regenerates the popular WebView SDKs table.
func BenchmarkTable4TopWebViewSDKs(b *testing.B) {
	benchAggregate(b, "table4", func(r *core.StaticResult) string {
		return report.TopSDKTable(r.Aggregates, false, *staticScale)
	})
}

// BenchmarkTable5TopCTSDKs regenerates the popular CT SDKs table.
func BenchmarkTable5TopCTSDKs(b *testing.B) {
	benchAggregate(b, "table5", func(r *core.StaticResult) string {
		return report.TopSDKTable(r.Aggregates, true, *staticScale)
	})
}

// BenchmarkTable7APIMethodUsage regenerates the API-method usage table.
func BenchmarkTable7APIMethodUsage(b *testing.B) {
	benchAggregate(b, "table7", func(r *core.StaticResult) string {
		return report.Table7(r.Aggregates, *staticScale)
	})
}

// BenchmarkFigure3CategoryUseCases regenerates the per-app-category SDK
// use-case distribution.
func BenchmarkFigure3CategoryUseCases(b *testing.B) {
	benchAggregate(b, "figure3", func(r *core.StaticResult) string {
		return report.Figure3(r.Aggregates)
	})
}

// BenchmarkFigure4MethodHeatmap regenerates the WebView API method heatmap.
func BenchmarkFigure4MethodHeatmap(b *testing.B) {
	benchAggregate(b, "figure4", func(r *core.StaticResult) string {
		return report.Figure4(r.Aggregates)
	})
}

// --- Pipeline performance: streaming + result cache -----------------------

// benchBackends pre-builds every APK image and metadata record so the
// pipeline benchmarks below measure pipeline work — filtering, digesting,
// decompiling, parsing, traversal — rather than corpus synthesis or
// loopback networking.
type benchBackends struct {
	c    *corpus.Corpus
	pkgs []string
	imgs map[string][]byte
	md   map[string]playstore.Metadata
}

func (r *benchBackends) List(ctx context.Context) ([]string, error) { return r.pkgs, nil }

func (r *benchBackends) Download(ctx context.Context, pkg string) ([]byte, error) {
	img, ok := r.imgs[pkg]
	if !ok {
		return nil, fmt.Errorf("bench repo: unknown package %s", pkg)
	}
	return img, nil
}

func (r *benchBackends) Metadata(ctx context.Context, pkg string) (playstore.Metadata, error) {
	md, ok := r.md[pkg]
	if !ok {
		return playstore.Metadata{}, playstore.ErrNotFound
	}
	return md, nil
}

var (
	benchPipeOnce sync.Once
	benchPipeFix  *benchBackends
)

func benchSetup(b *testing.B) *benchBackends {
	b.Helper()
	benchPipeOnce.Do(func() {
		c, err := corpus.Generate(corpus.Config{Seed: 3, Scale: 2500})
		if err != nil {
			panic(err)
		}
		fix := &benchBackends{
			c:    c,
			imgs: make(map[string][]byte, len(c.Apps)),
			md:   make(map[string]playstore.Metadata, len(c.Apps)),
		}
		for _, s := range c.Apps {
			fix.pkgs = append(fix.pkgs, s.Package)
			img, err := corpus.BuildAPK(s)
			if err != nil {
				panic(err)
			}
			fix.imgs[s.Package] = img
			if s.OnPlayStore {
				fix.md[s.Package] = playstore.Metadata{
					Package: s.Package, Title: s.Title, Category: s.PlayCategory,
					Downloads: s.Downloads, LastUpdated: s.LastUpdated,
				}
			}
		}
		benchPipeFix = fix
	})
	return benchPipeFix
}

func benchPipeline(b *testing.B, cache *resultcache.Cache[pipeline.Analysis]) *pipeline.Result {
	b.Helper()
	fix := benchSetup(b)
	p := pipeline.New(fix, fix, pipeline.Config{
		MinDownloads: corpus.MinDownloads,
		UpdatedAfter: corpus.UpdateCutoff,
		Cache:        cache,
	})
	res, err := p.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if res.Funnel.Analyzed != fix.c.Counts.Analyzed {
		b.Fatalf("funnel drifted: %+v", res.Funnel)
	}
	return res
}

// BenchmarkPipelineCold measures a full pipeline run with an empty result
// cache every iteration: list, filter, download, decompile, parse,
// call-graph traversal and SDK labeling for every selected APK.
func BenchmarkPipelineCold(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPipeline(b, resultcache.New[pipeline.Analysis](0))
	}
}

// BenchmarkPipelineWarmCache measures the same run against a pre-warmed
// cache: every APK's analysis is served by content digest and the
// decompile/parse/callgraph stages are skipped entirely.
func BenchmarkPipelineWarmCache(b *testing.B) {
	cache := resultcache.New[pipeline.Analysis](0)
	benchPipeline(b, cache) // warm it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchPipeline(b, cache)
		if res.Stats.CacheHitRate() != 1.0 {
			b.Fatalf("warm run not fully cached: %+v", res.Stats)
		}
	}
}

// BenchmarkPipelineFaulted measures the cold pipeline under seeded fault
// injection (10% transient errors on every repository and metadata call)
// with retries absorbing the damage — the throughput cost of running
// degraded, against BenchmarkPipelineCold as the fault-free baseline.
// Backoff sleeps are a no-op so the benchmark measures retry work, not
// timer waits.
func BenchmarkPipelineFaulted(b *testing.B) {
	fix := benchSetup(b)
	fcfg := faults.Config{Seed: 7, ErrorRate: 0.1}
	repo := faults.NewRepository(fix, fcfg)
	meta := faults.NewMetadataSource(fix, fcfg)
	nop := func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	b.ReportAllocs()
	b.ResetTimer()
	var retries int64
	for i := 0; i < b.N; i++ {
		m := &retry.Metrics{}
		p := pipeline.New(repo, meta, pipeline.Config{
			MinDownloads: corpus.MinDownloads,
			UpdatedAfter: corpus.UpdateCutoff,
			Cache:        resultcache.New[pipeline.Analysis](0),
			Retry:        &retry.Policy{MaxAttempts: 8, Seed: 1, Metrics: m, Sleep: nop},
		})
		res, err := p.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.Funnel.Analyzed != fix.c.Counts.Analyzed || len(res.Quarantined) != 0 {
			b.Fatalf("faulted run degraded: funnel %+v, %d quarantined", res.Funnel, len(res.Quarantined))
		}
		retries = res.Stats.Retries
	}
	b.ReportMetric(float64(retries), "retries/op")
}

// BenchmarkAnalyzeOneAllocs measures the per-APK analysis path alone —
// the unit of work the cache memoises — and tracks its allocations.
func BenchmarkAnalyzeOneAllocs(b *testing.B) {
	fix := benchSetup(b)
	img := fix.imgs[fix.c.Filtered()[0].Package]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := pipeline.AnalyzeAndExtract(nil, nil, nil, img)
		if err != nil {
			b.Fatal(err)
		}
		if an.Broken {
			b.Fatal("fixture APK analysed as broken")
		}
	}
}

// BenchmarkAnalyzeOneLintURLsAllocs is BenchmarkAnalyzeOneAllocs with the
// lint and URL-extraction stages on, the configuration of `staticscan
// -lint -urls`: every consumer of the call graph (usage, ParamTaint and
// Extract) runs on the APK.
func BenchmarkAnalyzeOneLintURLsAllocs(b *testing.B) {
	fix := benchSetup(b)
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ex := urlextract.New(urlextract.Config{})
	img := fix.imgs[fix.c.Filtered()[0].Package]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := pipeline.AnalyzeAndExtract(nil, lint, ex, img)
		if err != nil {
			b.Fatal(err)
		}
		if an.Broken {
			b.Fatal("fixture APK analysed as broken")
		}
	}
}

// --- Lint stage: WebView misconfiguration analysis -----------------------

func benchLintPipeline(b *testing.B, cache *resultcache.Cache[pipeline.Analysis]) *pipeline.Result {
	b.Helper()
	fix := benchSetup(b)
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		b.Fatal(err)
	}
	p := pipeline.New(fix, fix, pipeline.Config{
		MinDownloads: corpus.MinDownloads,
		UpdatedAfter: corpus.UpdateCutoff,
		Cache:        cache,
		Lint:         lint,
	})
	res, err := p.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if res.Funnel.Analyzed != fix.c.Counts.Analyzed {
		b.Fatalf("funnel drifted: %+v", res.Funnel)
	}
	return res
}

// BenchmarkPipelineLintCold measures the full pipeline with the lint stage
// enabled and an empty cache: the delta against BenchmarkPipelineCold is
// the end-to-end cost of the misconfiguration analysis. Reports findings/op.
func BenchmarkPipelineLintCold(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	var findings int
	for i := 0; i < b.N; i++ {
		res := benchLintPipeline(b, resultcache.New[pipeline.Analysis](0))
		if res.Stats.LintFindings == 0 {
			b.Fatal("lint run produced no findings over the seeded corpus")
		}
		findings = res.Stats.LintFindings
	}
	b.ReportMetric(float64(findings), "findings/op")
}

// BenchmarkAnalyzeAndLintOne measures the per-APK analyze+lint path — the
// unit of work the cache memoises under a lint-bearing key. The delta
// against BenchmarkAnalyzeOneAllocs is the per-APK lint cost.
func BenchmarkAnalyzeAndLintOne(b *testing.B) {
	fix := benchSetup(b)
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		b.Fatal(err)
	}
	img := fix.imgs[fix.c.Filtered()[0].Package]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := pipeline.AnalyzeAndExtract(nil, lint, nil, img)
		if err != nil {
			b.Fatal(err)
		}
		if an.Broken {
			b.Fatal("fixture APK analysed as broken")
		}
	}
}

// --- URL-extraction stage: interprocedural endpoint dataflow --------------

func benchURLPipeline(b *testing.B, cache *resultcache.Cache[pipeline.Analysis]) *pipeline.Result {
	b.Helper()
	fix := benchSetup(b)
	p := pipeline.New(fix, fix, pipeline.Config{
		MinDownloads: corpus.MinDownloads,
		UpdatedAfter: corpus.UpdateCutoff,
		Cache:        cache,
		URLs:         urlextract.New(urlextract.Config{}),
	})
	res, err := p.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if res.Funnel.Analyzed != fix.c.Counts.Analyzed {
		b.Fatalf("funnel drifted: %+v", res.Funnel)
	}
	return res
}

// BenchmarkPipelineWithURLExtract measures the full pipeline with the URL
// stage enabled and an empty cache: the delta against BenchmarkPipelineCold
// is the end-to-end cost of the interprocedural string dataflow. Reports
// endpoints/op.
func BenchmarkPipelineWithURLExtract(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	var endpoints int
	for i := 0; i < b.N; i++ {
		res := benchURLPipeline(b, resultcache.New[pipeline.Analysis](0))
		if res.Stats.URLEndpoints == 0 {
			b.Fatal("URL run extracted no endpoints over the seeded corpus")
		}
		endpoints = res.Stats.URLEndpoints
	}
	b.ReportMetric(float64(endpoints), "endpoints/op")
}

// BenchmarkPipelineURLExtractWarm measures the same run against a
// pre-warmed cache: endpoints ride inside the cached analyses, so the
// extraction stage must not run at all (its In counter stays zero).
func BenchmarkPipelineURLExtractWarm(b *testing.B) {
	cache := resultcache.New[pipeline.Analysis](0)
	benchURLPipeline(b, cache) // warm it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchURLPipeline(b, cache)
		if res.Stats.CacheHitRate() != 1.0 {
			b.Fatalf("warm run not fully cached: %+v", res.Stats)
		}
		if res.Stats.URLs.In != 0 {
			b.Fatalf("warm run re-extracted %d apps, want stage skipped", res.Stats.URLs.In)
		}
	}
}

// --- Table 6: top-1K classification --------------------------------------

var (
	top1kOnce  sync.Once
	top1kSpecs []*corpus.Spec
)

func top1k(b *testing.B) []*corpus.Spec {
	b.Helper()
	top1kOnce.Do(func() {
		c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 100})
		if err != nil {
			panic(err)
		}
		top1kSpecs = c.Top(1000)
	})
	return top1kSpecs
}

// BenchmarkTable6Top1KClassification measures the full semi-manual walk:
// install, launch, find the UGC surface, post the probe link, click it and
// classify the result — for all 1000 top apps.
func BenchmarkTable6Top1KClassification(b *testing.B) {
	specs := top1k(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study := core.NewDynamicStudy()
		t6, err := study.ClassifyTopApps(context.Background(), specs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			emit("table6", report.Table6(t6))
		}
		if t6.OpensWebView != 10 || t6.OpensCustomTab != 1 {
			b.Fatalf("classification drifted: %+v", t6)
		}
	}
}

// --- Tables 8/9: IAB deep probe -------------------------------------------

func namedIABSpecs() []*corpus.Spec {
	var specs []*corpus.Spec
	for i := range corpus.NamedApps {
		n := &corpus.NamedApps[i]
		specs = append(specs, &corpus.Spec{
			Package: n.Package, Title: n.Title, Downloads: n.Downloads,
			OnPlayStore: true, Dynamic: n.Dynamic,
		})
	}
	return specs
}

// BenchmarkTable8IABInjection measures instrumenting all ten WebView IABs
// against the controlled page: Frida hooks, navigation, injection
// execution and interaction recording.
func BenchmarkTable8IABInjection(b *testing.B) {
	specs := namedIABSpecs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study := core.NewDynamicStudy()
		rows, _, err := study.ProbeIABs(context.Background(), specs)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("rows = %d", len(rows))
		}
		if i == 0 {
			emit("table8", report.Table8(rows))
		}
	}
}

// BenchmarkTable9WebAPIUsage measures the controlled page's Web-API
// interception for the Meta IAB (the heaviest injector).
func BenchmarkTable9WebAPIUsage(b *testing.B) {
	specs := namedIABSpecs()[:1] // Facebook
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study := core.NewDynamicStudy()
		rows, _, err := study.ProbeIABs(context.Background(), specs)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows[0].WebAPITraces) == 0 {
			b.Fatal("no traces")
		}
		if i == 0 {
			emit("table9", report.Table9(rows))
		}
	}
}

// --- Figure 6: top-site crawl ---------------------------------------------

// BenchmarkFigure6EndpointDistribution measures the ADB-driven crawl of
// the top sites with the LinkedIn and Kik IABs plus the baseline shell.
func BenchmarkFigure6EndpointDistribution(b *testing.B) {
	sites := crux.TopSites(*crawlSites)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		study := core.NewDynamicStudy()
		crux.RegisterAll(study.Net, sites)
		apps := []string{"com.linkedin.android", "kik.android", "org.chromium.webview_shell"}
		for _, spec := range []*corpus.Spec{
			{Package: "com.linkedin.android", Title: "LinkedIn", OnPlayStore: true,
				Dynamic: corpus.Dynamic{HasUserContent: true, LinkSurface: "Post",
					LinkOpens: corpus.LinkWebView, Injection: corpus.InjectRadar}},
			{Package: "kik.android", Title: "Kik", OnPlayStore: true,
				Dynamic: corpus.Dynamic{HasUserContent: true, LinkSurface: "DM",
					LinkOpens: corpus.LinkWebView, Injection: corpus.InjectAdsMulti}},
			core.BaselineShellSpec(),
		} {
			if _, err := study.Device.Install(spec); err != nil {
				b.Fatal(err)
			}
		}
		srv := adb.NewServer(study.Device)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		client, err := adb.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		cr := crawler.New(client, crawler.Config{
			Apps: apps, Sites: sites,
			OwnDomains: map[string][]string{"com.linkedin.android": {"linkedin.com", "licdn.com"}},
		})
		b.StartTimer()

		res, err := cr.Run()
		if err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		if len(res.Failures) != 0 {
			b.Fatalf("failures: %v", res.Failures)
		}
		if i == 0 {
			emit("figure6",
				report.Figure6(res, "com.linkedin.android", "LinkedIn")+
					report.Figure6(res, "kik.android", "Kik")+
					report.Figure6(res, "org.chromium.webview_shell", "System WebView Shell (baseline)"))
		}
		client.Close()
		srv.Close()
		b.StartTimer()
	}
}

// --- Figure 7: page load time ----------------------------------------------

// BenchmarkFigure7PageLoadTime measures the load-time model over the four
// rendering paths across page sizes.
func BenchmarkFigure7PageLoadTime(b *testing.B) {
	m := pageload.Default()
	emit("figure7", report.Figure7(m, 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for requests := 1; requests <= 64; requests *= 2 {
			times := m.Compare(requests)
			if times[pageload.ModeCustomTab] >= times[pageload.ModeWebView] {
				b.Fatal("CT slower than WebView")
			}
		}
	}
}
