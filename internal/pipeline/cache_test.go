package pipeline

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/dalvik"
	"repro/internal/resultcache"
	"repro/internal/sdkindex"
)

// TestWarmCacheRunIdentical runs the pipeline twice over the same corpus
// sharing a result cache: the second run must hit the cache for every APK
// (broken ones included) and produce a deeply equal Result.
func TestWarmCacheRunIdentical(t *testing.T) {
	c := failureCorpus(t)
	cache := resultcache.New[Analysis](0)
	cfg := Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
		Workers: 4, Cache: cache}
	p := New(&flakyRepo{c: c}, &memMeta{c: c}, cfg)

	cold, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.CacheHits != 0 {
		t.Errorf("cold run had %d cache hits", cold.Stats.CacheHits)
	}
	if cold.Stats.CacheMisses != cold.Funnel.Filtered {
		t.Errorf("cold misses = %d, want %d", cold.Stats.CacheMisses, cold.Funnel.Filtered)
	}

	warm, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheMisses != 0 || warm.Stats.CacheHits != warm.Funnel.Filtered {
		t.Errorf("warm run: hits=%d misses=%d, want hits=%d misses=0",
			warm.Stats.CacheHits, warm.Stats.CacheMisses, warm.Funnel.Filtered)
	}
	if rate := warm.Stats.CacheHitRate(); rate != 1.0 {
		t.Errorf("warm hit rate = %v, want 1.0", rate)
	}
	if warm.Stats.Analyze.In != 0 {
		t.Errorf("warm run analysed %d APKs, want 0", warm.Stats.Analyze.In)
	}
	if cold.Funnel != warm.Funnel {
		t.Errorf("funnels differ:\ncold %+v\nwarm %+v", cold.Funnel, warm.Funnel)
	}
	if !reflect.DeepEqual(cold.Apps, warm.Apps) {
		t.Error("warm-run apps differ from cold run")
	}
}

// TestWarmCachePersistentTier restarts the "process" (a fresh pipeline and
// LRU) over a shared persistent store and still expects a fully warm run.
func TestWarmCachePersistentTier(t *testing.T) {
	c := failureCorpus(t)
	store := resultcache.NewMemStore()
	cfg := Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff, Workers: 4}

	cfg.Cache = resultcache.NewPersistent[Analysis](0, store, nil)
	cold, err := New(&flakyRepo{c: c}, &memMeta{c: c}, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cfg.Cache = resultcache.NewPersistent[Analysis](0, store, nil) // empty LRU, warm store
	warm, err := New(&flakyRepo{c: c}, &memMeta{c: c}, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rate := warm.Stats.CacheHitRate(); rate != 1.0 {
		t.Errorf("warm-from-store hit rate = %v, want 1.0", rate)
	}
	if cs := cfg.Cache.Stats(); cs.StoreHits == 0 {
		t.Errorf("no persistent-tier hits: %+v", cs)
	}
	if cold.Funnel != warm.Funnel {
		t.Errorf("funnels differ:\ncold %+v\nwarm %+v", cold.Funnel, warm.Funnel)
	}
	if !reflect.DeepEqual(cold.Apps, warm.Apps) {
		t.Error("store-warm apps differ from cold run (JSON round trip not faithful)")
	}
}

// hitStore is a persistent cache tier that records the keys it serves.
type hitStore struct {
	*resultcache.MemStore
	mu   sync.Mutex
	hits map[string]bool
}

func (s *hitStore) Load(key string) ([]byte, bool, error) {
	b, ok, err := s.MemStore.Load(key)
	if ok {
		s.mu.Lock()
		s.hits[key] = true
		s.mu.Unlock()
	}
	return b, ok, err
}

// TestForeignCorpusCacheServesOnlyEqualBytes fills a cache from one corpus
// and runs another corpus of the same scale over it. Many package names
// recur across the two, with other bytes: a cache keyed by package name
// would replay the first corpus's analyses. The content key hits exactly
// the packages whose payload digest is the same in both corpora, and the
// run's Result is a fresh run's.
func TestForeignCorpusCacheServesOnlyEqualBytes(t *testing.T) {
	gen := func(seed int64) *corpus.Corpus {
		c, err := corpus.Generate(corpus.Config{Seed: seed, Scale: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2 := gen(1), gen(2)
	cfg := Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff, Workers: 4}
	run := func(c *corpus.Corpus, cache *resultcache.Cache[Analysis]) *Result {
		t.Helper()
		cfg := cfg
		cfg.Cache = cache
		res, err := New(&flakyRepo{c: c}, &memMeta{c: c}, cfg).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	store := &hitStore{MemStore: resultcache.NewMemStore(), hits: make(map[string]bool)}
	run(c1, resultcache.NewPersistent[Analysis](0, store, nil))
	got := run(c2, resultcache.NewPersistent[Analysis](0, store, nil))
	want := run(c2, nil)
	if got.Funnel != want.Funnel || !reflect.DeepEqual(got.Apps, want.Apps) ||
		!reflect.DeepEqual(got.Quarantined, want.Quarantined) {
		t.Fatal("a run over another corpus's cache diverged from a fresh run")
	}

	// The packages both corpora ship with the same bytes, by cache key.
	p := New(nil, nil, cfg)
	keys := func(c *corpus.Corpus) map[string]string {
		out := make(map[string]string)
		for _, s := range c.Filtered() {
			img, err := corpus.BuildAPK(s)
			if err != nil {
				t.Fatal(err)
			}
			out[keyOf(p, img)] = s.Package
		}
		return out
	}
	k1, k2 := keys(c1), keys(c2)
	names1 := make(map[string]bool, len(k1))
	for _, pkg := range k1 {
		names1[pkg] = true
	}
	shared, recurring := make(map[string]bool), 0
	for key, pkg := range k2 {
		if _, ok := k1[key]; ok {
			shared[key] = true
		}
		if names1[pkg] {
			recurring++
		}
	}
	if len(shared) == 0 || recurring <= len(shared) {
		t.Fatalf("corpora share %d payloads among %d recurring package names: nothing to tell apart", len(shared), recurring)
	}
	if !reflect.DeepEqual(store.hits, shared) {
		t.Errorf("run served %d cached analyses, want the %d whose payload is in both corpora", len(store.hits), len(shared))
	}
	if got.Stats.CacheHits != len(shared) || got.Stats.Analyze.In != got.Stats.CacheMisses {
		t.Errorf("hits=%d misses=%d analysed=%d, want %d hits and every miss analysed",
			got.Stats.CacheHits, got.Stats.CacheMisses, got.Stats.Analyze.In, len(shared))
	}
}

// TestIndexChangeInvalidatesCache runs with one SDK index, then with a
// different one over the same cache: the second run must not serve
// attributions computed under the old catalog.
func TestIndexChangeInvalidatesCache(t *testing.T) {
	c := failureCorpus(t)
	cache := resultcache.New[Analysis](0)
	base := Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
		Workers: 4, Cache: cache}

	if _, err := New(&flakyRepo{c: c}, &memMeta{c: c}, base).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	alt := base
	alt.Index = sdkindex.NewIndex(sdkindex.Catalog()[:10])
	res, err := New(&flakyRepo{c: c}, &memMeta{c: c}, alt).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != 0 {
		t.Errorf("run under a different index hit the old cache %d times", res.Stats.CacheHits)
	}
}

// TestStreamingBoundsInFlightImages checks the Stats invariant behind the
// memory bound: with Workers=2, no more than 2 APK images are ever held at
// once, however large the corpus.
func TestStreamingBoundsInFlightImages(t *testing.T) {
	c := failureCorpus(t)
	var maxImg int64
	for _, s := range c.Filtered() {
		img, err := corpus.BuildAPK(s)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(img)) > maxImg {
			maxImg = int64(len(img))
		}
	}
	p := New(&flakyRepo{c: c}, &memMeta{c: c},
		Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff, Workers: 2})
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PeakInFlightBytes == 0 {
		t.Fatal("peak in-flight bytes not recorded")
	}
	if res.Stats.PeakInFlightBytes > 2*maxImg {
		t.Errorf("peak in-flight bytes = %d, exceeds 2 workers × max image %d",
			res.Stats.PeakInFlightBytes, maxImg)
	}
}

// TestExcludedPackagesNotCountedUnlabeled pins the Table-3 derived stats:
// a caller from an Excluded index entry (com.google.android) is neither an
// SDK hit nor an unlabeled package, while a genuinely unknown package is
// counted unlabeled — the two must not be conflated.
func TestExcludedPackagesNotCountedUnlabeled(t *testing.T) {
	idx := sdkindex.Default()
	if sdk, ok := idx.Lookup("com.google.android.gms"); !ok || !sdk.Excluded {
		t.Fatal("fixture assumption: com.google.android must be an Excluded entry")
	}
	call := func(caller, method string) callgraph.APICall {
		return callgraph.APICall{
			Caller: dalvik.MethodRef{Class: caller + ".Widget", Name: "show", Signature: "()void"},
			Target: dalvik.MethodRef{Class: "android.webkit.WebView", Name: method, Signature: "(String)void"},
		}
	}
	usage := &callgraph.Usage{WebViewCalls: []callgraph.APICall{
		call("com.applovin.adview", "loadUrl"),    // labeled SDK
		call("com.google.android.gms", "loadUrl"), // excluded: counted nowhere
		call("com.example.mystery", "loadUrl"),    // unlabeled
		call("com.example.mystery", "evaluateJavascript"),
	}}

	an := &Analysis{}
	attributeSDKs(idx, an, usage)

	if got := an.UnlabeledWebViewPackages; got != 1 {
		t.Errorf("UnlabeledWebViewPackages = %d, want 1 (excluded must not count)", got)
	}
	if len(an.WebViewSDKs) != 1 || an.WebViewSDKs[0].SDK != "AppLovin" {
		t.Errorf("WebViewSDKs = %+v, want exactly AppLovin", an.WebViewSDKs)
	}
}
