package pipeline

import (
	"context"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/androzoo"
	"repro/internal/corpus"
	"repro/internal/playstore"
	"repro/internal/resultcache"
	"repro/internal/sdkindex"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

// runScale runs the full pipeline over a generated corpus served via real
// HTTP servers. Results are cached per scale: several tests share them.
var (
	runMu    sync.Mutex
	runCache = map[int]*Result{}
	genCache = map[int]*corpus.Corpus{}
)

func runPipeline(t *testing.T, scale int) (*Result, *corpus.Corpus) {
	t.Helper()
	runMu.Lock()
	defer runMu.Unlock()
	if r, ok := runCache[scale]; ok {
		return r, genCache[scale]
	}
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	azSrv := httptest.NewServer(androzoo.NewServer(c).Handler())
	t.Cleanup(azSrv.Close)
	psSrv := httptest.NewServer(playstore.NewServer(c).Handler())
	t.Cleanup(psSrv.Close)

	p := New(
		androzoo.NewClient(azSrv.URL, azSrv.Client()),
		playstore.NewClient(psSrv.URL, psSrv.Client()),
		Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff},
	)
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	runCache[scale] = res
	genCache[scale] = c
	return res, c
}

func TestFunnelMatchesCorpus(t *testing.T) {
	res, c := runPipeline(t, 600)
	want := c.Counts
	f := res.Funnel
	if f.Snapshot != want.Total || f.OnPlay != want.OnPlay || f.Popular != want.Popular ||
		f.Filtered != want.Filtered || f.Broken != want.Broken || f.Analyzed != want.Analyzed {
		t.Errorf("funnel = %+v, want %+v", f, want)
	}
}

// TestTable7AdoptionMatchesExperiments pins the 1/600 adoption rows that
// EXPERIMENTS.md prints under "Table 7 — WebView/CT API usage" and that its
// known deviation 3 ("both" rate by scale) quotes: 245 analysed, 136
// WebView, 52 CT and 45 both (18.4%).
func TestTable7AdoptionMatchesExperiments(t *testing.T) {
	res, _ := runPipeline(t, 600)
	var webView, ct, both int
	for i := range res.Apps {
		app := &res.Apps[i]
		if app.UsesWebView {
			webView++
		}
		if app.UsesCT {
			ct++
		}
		if app.UsesWebView && app.UsesCT {
			both++
		}
	}
	if len(res.Apps) != 245 || webView != 136 || ct != 52 || both != 45 {
		t.Errorf("analysed %d, WebView %d, CT %d, both %d; EXPERIMENTS.md prints 245, 136, 52, 45",
			len(res.Apps), webView, ct, both)
	}
}

func TestPerAppResultsMatchGroundTruth(t *testing.T) {
	res, c := runPipeline(t, 600)
	specs := make(map[string]*corpus.Spec)
	for _, s := range c.Filtered() {
		specs[s.Package] = s
	}
	if len(res.Apps) == 0 {
		t.Fatal("no apps analysed")
	}
	for i := range res.Apps {
		app := &res.Apps[i]
		spec := specs[app.Package]
		if spec == nil {
			t.Fatalf("analysed app %s not in ground truth", app.Package)
		}
		if app.UsesWebView != spec.UsesWebView() {
			t.Errorf("%s: UsesWebView = %v, truth %v", app.Package, app.UsesWebView, spec.UsesWebView())
		}
		if app.UsesCT != spec.UsesCT() {
			t.Errorf("%s: UsesCT = %v, truth %v", app.Package, app.UsesCT, spec.UsesCT())
		}
		if app.Downloads != spec.Downloads {
			t.Errorf("%s: downloads = %d, truth %d", app.Package, app.Downloads, spec.Downloads)
		}
	}
}

func TestSDKAttributionMatchesGroundTruth(t *testing.T) {
	res, c := runPipeline(t, 600)
	idx := sdkindex.Default()
	specs := make(map[string]*corpus.Spec)
	for _, s := range c.Filtered() {
		specs[s.Package] = s
	}
	checked := 0
	for i := range res.Apps {
		app := &res.Apps[i]
		spec := specs[app.Package]
		// Apps whose own package is an SDK prefix (e.g. Facebook's app vs
		// Facebook's SDK, both under com.facebook) legitimately attribute
		// first-party code to the vendor's SDK; skip the exact-match check.
		if _, selfMatch := idx.Lookup(app.Package); selfMatch {
			continue
		}
		// Ground-truth SDK names on the WebView side.
		want := make(map[string]bool)
		for _, u := range spec.SDKs {
			if len(u.WebViewMethods) == 0 {
				continue
			}
			if sdk, ok := idx.Lookup(u.Package); ok {
				want[sdk.Name] = true
			}
		}
		got := make(map[string]bool)
		for _, hit := range app.WebViewSDKs {
			got[hit.SDK] = true
		}
		for name := range want {
			if !got[name] {
				t.Errorf("%s: SDK %s planted but not attributed", app.Package, name)
			}
		}
		for name := range got {
			if !want[name] {
				t.Errorf("%s: SDK %s attributed but not planted", app.Package, name)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestSubclassesDetectedViaSource(t *testing.T) {
	res, _ := runPipeline(t, 600)
	ag := Aggregate(res)
	// Roughly half the SDK WebView integrations ship a custom subclass.
	if ag.AppsWithSubclasses == 0 {
		t.Error("no custom WebView subclasses detected")
	}
}

func TestAggregateAdoptionShape(t *testing.T) {
	res, _ := runPipeline(t, 600)
	ag := Aggregate(res)
	rate := func(n int) float64 { return float64(n) / float64(ag.Analyzed) }
	if r := rate(ag.WebViewApps); r < 0.45 || r > 0.65 {
		t.Errorf("WebView rate = %.3f, want ≈0.557", r)
	}
	if r := rate(ag.CTApps); r < 0.13 || r > 0.27 {
		t.Errorf("CT rate = %.3f, want ≈0.199", r)
	}
	// Table 7 ordering: loadUrl is the most common method.
	if ag.MethodApps[android.MethodLoadURL] < ag.MethodApps[android.MethodPostURL] {
		t.Error("loadUrl less common than postUrl")
	}
	// Advertising dominates the WebView SDK landscape.
	adApps := ag.CategoryWVApps[sdkindex.Advertising]
	for cat, n := range ag.CategoryWVApps {
		if cat != sdkindex.Advertising && n > adApps {
			t.Errorf("category %s (%d apps) exceeds Advertising (%d)", cat, n, adApps)
		}
	}
	// Social dominates CT usage.
	socApps := ag.CategoryCTApps[sdkindex.Social]
	for cat, n := range ag.CategoryCTApps {
		if cat != sdkindex.Social && n > socApps {
			t.Errorf("category %s (%d CT apps) exceeds Social (%d)", cat, n, socApps)
		}
	}
}

func TestHeatmapRates(t *testing.T) {
	res, _ := runPipeline(t, 600)
	ag := Aggregate(res)
	// Figure 4's headline: >45% of ad-SDK apps expose a JS bridge, >30%
	// inject JS (loose bands at reduced scale).
	if r := ag.HeatmapRate(sdkindex.Advertising, android.MethodAddJavascriptInterface); r < 0.30 || r > 0.65 {
		t.Errorf("ads addJavascriptInterface rate = %.2f", r)
	}
	// User-support SDKs always load local data.
	if r := ag.HeatmapRate(sdkindex.UserSupport, android.MethodLoadDataWithBaseURL); r < 0.9 {
		t.Errorf("user-support loadDataWithBaseURL rate = %.2f, want 1.0", r)
	}
	// Out-of-range queries are well-defined.
	if r := ag.HeatmapRate("Nonexistent", android.MethodLoadURL); r != 0 {
		t.Errorf("rate for unknown category = %v", r)
	}
}

func TestTopSDKsRanking(t *testing.T) {
	res, _ := runPipeline(t, 600)
	ag := Aggregate(res)
	top := ag.TopSDKs(sdkindex.Advertising, false, 5)
	if len(top) == 0 {
		t.Fatal("no advertising SDKs observed")
	}
	if top[0].Name != "AppLovin" {
		t.Errorf("top ad SDK = %s, want AppLovin", top[0].Name)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Apps > top[i-1].Apps {
			t.Error("TopSDKs not sorted")
		}
	}
	ct := ag.TopSDKs(sdkindex.Social, true, 3)
	if len(ct) == 0 || ct[0].Name != "Facebook" {
		t.Errorf("top social CT SDK = %+v, want Facebook", ct)
	}
}

func TestContextCancellation(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	azSrv := httptest.NewServer(androzoo.NewServer(c).Handler())
	defer azSrv.Close()
	psSrv := httptest.NewServer(playstore.NewServer(c).Handler())
	defer psSrv.Close()
	p := New(
		androzoo.NewClient(azSrv.URL, azSrv.Client()),
		playstore.NewClient(psSrv.URL, psSrv.Client()),
		Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff, Workers: 2},
	)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx); err == nil {
		t.Error("cancelled run succeeded")
	}
}

// blockingStore is a BlobStore whose writes wait until release is closed,
// counting the writes pending meanwhile.
type blockingStore struct {
	*resultcache.MemStore
	pending atomic.Int64
	release chan struct{}
}

func (s *blockingStore) Store(key string, blob []byte) error {
	s.pending.Add(1)
	<-s.release
	return s.MemStore.Store(key, blob)
}

// TestAPKsInFlightBoundedByWorkers holds every cache write, so no package
// can finish, and checks that at most Workers packages were downloaded:
// one worker carries each package from download to cache write, and
// nothing queues the parsed sources of further packages between stages.
func TestAPKsInFlightBoundedByWorkers(t *testing.T) {
	const workers = 2
	c := failureCorpus(t)
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	store := &blockingStore{MemStore: resultcache.NewMemStore(), release: make(chan struct{})}
	repo := &flakyRepo{c: c}
	p := New(repo, &memMeta{c: c}, Config{
		MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
		Workers: workers, Lint: lint, URLs: urlextract.New(urlextract.Config{}),
		Cache: resultcache.NewPersistent[Analysis](0, store, nil),
	})
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(context.Background())
		done <- err
	}()
	var once sync.Once
	release := func() { once.Do(func() { close(store.release) }) }
	defer release()

	// Wait for a pending write and a download count that has stopped
	// changing.
	deadline := time.Now().Add(30 * time.Second)
	n, since := repo.calls.Load(), time.Now()
	for store.pending.Load() == 0 || time.Since(since) < 200*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("downloads never settled: %d downloaded, %d writes pending", n, store.pending.Load())
		}
		time.Sleep(5 * time.Millisecond)
		if cur := repo.calls.Load(); cur != n {
			n, since = cur, time.Now()
		}
	}
	if n > workers {
		t.Errorf("%d packages downloaded while every cache write was held, want at most Workers = %d", n, workers)
	}

	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Run did not finish after the cache writes were released")
	}
}
