// Chaos tests: seeded fault injection across the pipeline's layers, with
// the headline invariant that a faulted run (faults within the error
// budget, retries enabled) produces byte-identical report tables to a
// fault-free run. They live in the external test package so they can
// render through internal/report, which imports pipeline.
package pipeline_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/playstore"
	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/retry"
)

// chaosRepo serves APKs straight from corpus specs, recording which
// packages were downloaded.
type chaosRepo struct {
	c  *corpus.Corpus
	mu sync.Mutex
	dl map[string]int
}

func newChaosRepo(c *corpus.Corpus) *chaosRepo {
	return &chaosRepo{c: c, dl: make(map[string]int)}
}

func (r *chaosRepo) List(ctx context.Context) ([]string, error) {
	out := make([]string, 0, len(r.c.Apps))
	for _, s := range r.c.Apps {
		out = append(out, s.Package)
	}
	return out, nil
}

func (r *chaosRepo) Download(ctx context.Context, pkg string) ([]byte, error) {
	r.mu.Lock()
	r.dl[pkg]++
	r.mu.Unlock()
	spec := r.c.AppByPackage(pkg)
	if spec == nil {
		return nil, fmt.Errorf("chaos: unknown %s", pkg)
	}
	return corpus.BuildAPK(spec)
}

func (r *chaosRepo) downloaded() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.dl))
	for k, v := range r.dl {
		out[k] = v
	}
	return out
}

// chaosMeta serves metadata straight from corpus specs.
type chaosMeta struct{ c *corpus.Corpus }

func (m *chaosMeta) Metadata(ctx context.Context, pkg string) (playstore.Metadata, error) {
	spec := m.c.AppByPackage(pkg)
	if spec == nil || !spec.OnPlayStore {
		return playstore.Metadata{}, fmt.Errorf("%w: %s", playstore.ErrNotFound, pkg)
	}
	return playstore.Metadata{
		Package: spec.Package, Title: spec.Title, Category: spec.PlayCategory,
		Downloads: spec.Downloads, LastUpdated: spec.LastUpdated,
	}, nil
}

func chaosCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{Seed: 3, Scale: 2500})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func nopSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func chaosPolicy(m *retry.Metrics) *retry.Policy {
	// Enough attempts that a 10% per-call fault rate failing 8 times in a
	// row (p = 1e-8) cannot realistically quarantine anything.
	return &retry.Policy{MaxAttempts: 8, Seed: 1, Metrics: m, Sleep: nopSleep}
}

// renderTables renders every static-study table and figure — the
// byte-identical surface the chaos invariant is asserted over.
func renderTables(res *pipeline.Result) string {
	aggs := pipeline.Aggregate(res)
	var sb strings.Builder
	sb.WriteString(report.Table2(res.Funnel, 2500))
	sb.WriteString(report.Table3(aggs))
	sb.WriteString(report.TopSDKTable(aggs, false, 2500))
	sb.WriteString(report.TopSDKTable(aggs, true, 2500))
	sb.WriteString(report.Table7(aggs, 2500))
	sb.WriteString(report.Figure3(aggs))
	sb.WriteString(report.Figure4(aggs))
	return sb.String()
}

func cleanRun(t *testing.T, c *corpus.Corpus) *pipeline.Result {
	t.Helper()
	p := pipeline.New(newChaosRepo(c), &chaosMeta{c: c},
		pipeline.Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff})
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	return res
}

// TestChaosFaultedRunMatchesFaultFree is the headline invariant: a run
// over backends injecting 10% transient errors plus latency, with retry
// enabled, emits report tables byte-identical to a fault-free run — and
// proves the faults actually fired via nonzero retry counters.
func TestChaosFaultedRunMatchesFaultFree(t *testing.T) {
	c := chaosCorpus(t)
	want := renderTables(cleanRun(t, c))

	fcfg := faults.Config{
		Seed: 7, ErrorRate: 0.1,
		LatencyRate: 0.1, Latency: 200 * time.Microsecond,
	}
	m := &retry.Metrics{}
	p := pipeline.New(
		faults.NewRepository(newChaosRepo(c), fcfg),
		faults.NewMetadataSource(&chaosMeta{c: c}, fcfg),
		pipeline.Config{
			MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
			Retry: chaosPolicy(m),
		})
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if res.Stats.Retries == 0 {
		t.Fatal("no retries recorded — the fault injection did not fire")
	}
	if len(res.Quarantined) != 0 {
		t.Errorf("retries should have absorbed every fault; quarantined: %+v", res.Quarantined)
	}
	if got := renderTables(res); got != want {
		t.Errorf("faulted run diverged from fault-free run:\n--- fault-free ---\n%s\n--- faulted ---\n%s", want, got)
	}
	t.Logf("recovered from %d transient faults via retries", res.Stats.Retries)
}

// TestChaosCacheCorruptionRecomputes aims fault injection at the
// persistent cache tier: every load is corrupted, the cache purges and
// recomputes, and the output still matches the fault-free run.
func TestChaosCacheCorruptionRecomputes(t *testing.T) {
	c := chaosCorpus(t)
	want := renderTables(cleanRun(t, c))

	blobs := resultcache.NewMemStore()
	warm := pipeline.New(newChaosRepo(c), &chaosMeta{c: c}, pipeline.Config{
		MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
		Cache: resultcache.NewPersistent[pipeline.Analysis](0, blobs, nil),
	})
	if _, err := warm.Run(context.Background()); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if blobs.Len() == 0 {
		t.Fatal("warm run stored nothing")
	}

	// Fresh LRU tier, same persistent blobs — but every load comes back
	// damaged. The cache must detect, purge and recompute every entry.
	cache := resultcache.NewPersistent[pipeline.Analysis](0,
		faults.NewStore(blobs, faults.Config{Seed: 7, CorruptRate: 1}), nil)
	cold := pipeline.New(newChaosRepo(c), &chaosMeta{c: c}, pipeline.Config{
		MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
		Cache: cache,
	})
	res, err := cold.Run(context.Background())
	if err != nil {
		t.Fatalf("corrupted-cache run: %v", err)
	}
	st := cache.Stats()
	if st.Purged == 0 {
		t.Error("no corrupt blobs purged — injection did not fire")
	}
	if st.Hits != 0 {
		t.Errorf("%d corrupted blobs served as hits", st.Hits)
	}
	if got := renderTables(res); got != want {
		t.Error("corrupted-cache run diverged from fault-free run")
	}
}

// TestChaosQuarantineKeepsRunAlive disables retries so injected faults
// land, and checks the error budget turns them into quarantined packages
// rather than a dead run — with the casualties accounted for exactly.
func TestChaosQuarantineKeepsRunAlive(t *testing.T) {
	c := chaosCorpus(t)
	fcfg := faults.Config{Seed: 11, ErrorRate: 0.05}
	p := pipeline.New(
		faults.NewRepository(newChaosRepo(c), fcfg),
		faults.NewMetadataSource(&chaosMeta{c: c}, fcfg),
		pipeline.Config{
			MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
			MaxFailureFrac: 0.2,
		})
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("run died despite a 20%% error budget: %v", err)
	}
	if len(res.Quarantined) == 0 {
		t.Fatal("no quarantined packages — injection did not fire")
	}
	if got := res.Stats.QuarantinedTotal(); got != len(res.Quarantined) {
		t.Errorf("stage counters sum to %d, Quarantined holds %d", got, len(res.Quarantined))
	}
	inApps := make(map[string]bool, len(res.Apps))
	for _, a := range res.Apps {
		inApps[a.Package] = true
	}
	for _, q := range res.Quarantined {
		if q.Err == "" {
			t.Errorf("quarantine entry for %s has no error", q.Package)
		}
		if inApps[q.Package] {
			t.Errorf("%s is both quarantined and in Apps", q.Package)
		}
	}
	t.Logf("degraded-complete: %d quarantined of %d snapshot packages",
		len(res.Quarantined), res.Funnel.Snapshot)
}

// TestChaosBudgetExceededAborts: a fault rate far beyond the budget must
// abort the run with the budget violation spelled out.
func TestChaosBudgetExceededAborts(t *testing.T) {
	c := chaosCorpus(t)
	fcfg := faults.Config{Seed: 11, ErrorRate: 0.5}
	p := pipeline.New(
		faults.NewRepository(newChaosRepo(c), fcfg),
		faults.NewMetadataSource(&chaosMeta{c: c}, fcfg),
		pipeline.Config{
			MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
			MaxFailureFrac: 0.005,
		})
	_, err := p.Run(context.Background())
	if err == nil {
		t.Fatal("run survived a 50% fault rate on a 0.5% budget")
	}
	if !strings.Contains(err.Error(), "error budget exceeded") {
		t.Errorf("err = %v, want an error-budget violation", err)
	}
}

// keyStore is a shared persistent cache tier that records the keys stored
// into it, so a test can tell which packages a run analysed.
type keyStore struct {
	*resultcache.MemStore
	mu   sync.Mutex
	keys map[string]bool
}

func newKeyStore() *keyStore {
	return &keyStore{MemStore: resultcache.NewMemStore(), keys: make(map[string]bool)}
}

func (s *keyStore) Store(key string, blob []byte) error {
	s.mu.Lock()
	s.keys[key] = true
	s.mu.Unlock()
	return s.MemStore.Store(key, blob)
}

// stored returns the keys stored so far and forgets them.
func (s *keyStore) stored() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.keys
	s.keys = make(map[string]bool)
	return out
}

// killRepo cancels the run once the cache store holds at least K analyses,
// simulating a crash at a deterministic point of progress.
type killRepo struct {
	*chaosRepo
	store  *keyStore
	k      int
	cancel context.CancelFunc
}

func (r *killRepo) Download(ctx context.Context, pkg string) ([]byte, error) {
	if r.store.Len() >= r.k {
		r.cancel()
		return nil, ctx.Err()
	}
	return r.chaosRepo.Download(ctx, pkg)
}

// TestChaosJournalKillAndResume kills a cached run mid-flight and reruns
// it over the same cache store: every package stored before the kill is a
// cache hit on the rerun and is never analysed again, the rerun analyses
// exactly its misses, and its results are an uninterrupted run's.
func TestChaosJournalKillAndResume(t *testing.T) {
	c := chaosCorpus(t)
	want := cleanRun(t, c)
	store := newKeyStore()
	run := func(ctx context.Context, repo pipeline.Repository) (*pipeline.Result, error) {
		return pipeline.New(repo, &chaosMeta{c: c}, pipeline.Config{
			MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
			Cache: resultcache.NewPersistent[pipeline.Analysis](0, store, nil),
		}).Run(ctx)
	}

	// Phase 1: run until ~12 packages are stored, then die.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := run(ctx, &killRepo{chaosRepo: newChaosRepo(c), store: store, k: 12, cancel: cancel}); err == nil {
		t.Fatal("killed run reported success")
	}
	before := store.stored()
	if len(before) < 12 || len(before) >= want.Funnel.Filtered {
		t.Fatalf("%d packages stored before the kill, want 12 to %d", len(before), want.Funnel.Filtered-1)
	}

	// Phase 2: rerun over the same store, with a fresh in-memory tier.
	repo := newChaosRepo(c)
	res, err := run(context.Background(), repo)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	st := res.Stats
	if st.CacheHits != len(before) {
		t.Errorf("rerun cache hits = %d, want the %d analyses stored before the kill", st.CacheHits, len(before))
	}
	if st.Analyze.In != st.CacheMisses {
		t.Errorf("rerun analysed %d packages, want its %d misses", st.Analyze.In, st.CacheMisses)
	}
	// A cache write follows every analysis, so the rerun's writes are the
	// packages it analysed: none of them was stored before the kill.
	after := store.stored()
	for key := range after {
		if before[key] {
			t.Errorf("rerun analysed %s again", key)
		}
	}
	if got := len(before) + len(after); got != want.Funnel.Filtered {
		t.Errorf("the two runs analysed %d packages, want each of the %d filtered once", got, want.Funnel.Filtered)
	}
	if got := len(repo.downloaded()); got != want.Funnel.Filtered {
		t.Errorf("rerun downloaded %d packages, want all %d filtered", got, want.Funnel.Filtered)
	}
	if res.Funnel != want.Funnel {
		t.Errorf("rerun funnel = %+v, want %+v", res.Funnel, want.Funnel)
	}
	if !reflect.DeepEqual(res.Apps, want.Apps) {
		t.Error("rerun's apps differ from an uninterrupted run's")
	}
	if !reflect.DeepEqual(res.Quarantined, want.Quarantined) {
		t.Errorf("rerun quarantined %+v, want %+v", res.Quarantined, want.Quarantined)
	}
}
