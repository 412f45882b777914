// Unit tests for the shard control plane: partition determinism, lease
// lifecycle under an injected clock, result acceptance rules, and the
// merge fold. The plane-level identity and chaos invariants live in
// identity_test.go and chaos_test.go.
package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/playstore"
	"repro/internal/retry"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// --- shared in-process harness -----------------------------------------

// fakeClock is an injectable coordinator clock: chaos tests expire leases
// by advancing it rather than sleeping out a TTL.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// testRepo serves APKs straight from corpus specs, counting downloads per
// package across every worker that shares it.
type testRepo struct {
	c  *corpus.Corpus
	mu sync.Mutex
	dl map[string]int
	// onDownload, when non-nil, observes each download (after counting);
	// the chaos test uses it to kill a worker mid-partition.
	onDownload func(pkg string, nth int)
}

func newTestRepo(c *corpus.Corpus) *testRepo {
	return &testRepo{c: c, dl: make(map[string]int)}
}

func (r *testRepo) List(ctx context.Context) ([]string, error) {
	out := make([]string, 0, len(r.c.Apps))
	for _, s := range r.c.Apps {
		out = append(out, s.Package)
	}
	return out, nil
}

func (r *testRepo) Download(ctx context.Context, pkg string) ([]byte, error) {
	r.mu.Lock()
	r.dl[pkg]++
	nth := r.dl[pkg]
	hook := r.onDownload
	r.mu.Unlock()
	if hook != nil {
		hook(pkg, nth)
	}
	spec := r.c.AppByPackage(pkg)
	if spec == nil {
		return nil, fmt.Errorf("shard test: unknown %s", pkg)
	}
	return corpus.BuildAPK(spec)
}

func (r *testRepo) setOnDownload(fn func(pkg string, nth int)) {
	r.mu.Lock()
	r.onDownload = fn
	r.mu.Unlock()
}

// testMeta serves metadata straight from corpus specs.
type testMeta struct{ c *corpus.Corpus }

func (m *testMeta) Metadata(ctx context.Context, pkg string) (playstore.Metadata, error) {
	spec := m.c.AppByPackage(pkg)
	if spec == nil || !spec.OnPlayStore {
		return playstore.Metadata{}, fmt.Errorf("%w: %s", playstore.ErrNotFound, pkg)
	}
	return playstore.Metadata{
		Package: spec.Package, Title: spec.Title, Category: spec.PlayCategory,
		Downloads: spec.Downloads, LastUpdated: spec.LastUpdated,
	}, nil
}

func testCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{Seed: 3, Scale: 2500})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// startCoordinator mounts the control plane on an httptest server.
func startCoordinator(t *testing.T, cfg shard.CoordinatorConfig) (*shard.Coordinator, *httptest.Server) {
	t.Helper()
	coord, err := shard.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return coord, srv
}

// inProcessServices injects an in-process repository/store pair into a
// worker, bypassing the androzoo/playstore HTTP clients.
func inProcessServices(repo pipeline.Repository, meta pipeline.MetadataSource) func(shard.RunSpec) (pipeline.Repository, pipeline.MetadataSource, error) {
	return func(shard.RunSpec) (pipeline.Repository, pipeline.MetadataSource, error) {
		return repo, meta, nil
	}
}

// runWorkers runs n in-process workers against the coordinator at url
// until the run is done or ctx ends, and returns each worker's error.
// Each worker builds its own telemetry hub from the spec, exactly like a
// separate worker OS process would.
func runWorkers(ctx context.Context, t *testing.T, url string, n int, repo pipeline.Repository, meta pipeline.MetadataSource) []error {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range n {
		w, err := shard.NewWorker(shard.WorkerConfig{
			Coordinator: url,
			Name:        fmt.Sprintf("worker-%d", i),
			Poll:        10 * time.Millisecond,
			Services:    inProcessServices(repo, meta),
			Retry:       &retry.Policy{MaxAttempts: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}()
	}
	wg.Wait()
	return errs
}

// --- partition function -------------------------------------------------

func TestPartitionOfIsDeterministicAndCovers(t *testing.T) {
	c := testCorpus(t)
	for _, shards := range []int{1, 2, 4, 8} {
		seen := make(map[int]int)
		for _, app := range c.Apps {
			p := shard.PartitionOf(app.Package, shards)
			if p < 0 || p >= shards {
				t.Fatalf("PartitionOf(%q, %d) = %d out of range", app.Package, shards, p)
			}
			if q := shard.PartitionOf(app.Package, shards); q != p {
				t.Fatalf("PartitionOf not deterministic for %q", app.Package)
			}
			seen[p]++
		}
		if shards > 1 && len(seen) != shards {
			t.Fatalf("%d shards: only %d partitions populated over %d packages", shards, len(seen), len(c.Apps))
		}
	}
}

func TestPartitionTagDistinguishesSpecs(t *testing.T) {
	tags := map[string]string{
		"0/4": shard.PartitionTag(0, 4),
		"1/4": shard.PartitionTag(1, 4),
		"0/8": shard.PartitionTag(0, 8),
	}
	seen := make(map[string]string)
	for name, tag := range tags {
		if prev, ok := seen[tag]; ok {
			t.Fatalf("tag collision: %s and %s both render %q", prev, name, tag)
		}
		seen[tag] = name
	}
	if shard.PartitionTag(0, 4) != shard.PartitionTag(0, 4) {
		t.Fatal("PartitionTag not deterministic")
	}
	if got := shard.PartitionTag(2, 4); got != "2/4" {
		t.Fatalf("PartitionTag(2, 4) = %q, want \"2/4\"", got)
	}
}

// --- merge ---------------------------------------------------------------

func TestMergeFoldsPartitions(t *testing.T) {
	a := &pipeline.Result{
		Funnel: pipeline.Funnel{Snapshot: 10, OnPlay: 6, Popular: 4, Filtered: 3, Broken: 1, Analyzed: 2},
		Apps: []pipeline.AppResult{
			{Package: "com.zeta"}, {Package: "com.alpha"},
		},
		Quarantined: []pipeline.Quarantine{{Package: "com.q", Stage: "download"}},
	}
	b := &pipeline.Result{
		Funnel: pipeline.Funnel{Snapshot: 7, OnPlay: 3, Popular: 2, Filtered: 2, Broken: 0, Analyzed: 2},
		Apps: []pipeline.AppResult{
			{Package: "com.mid"},
		},
		Quarantined: []pipeline.Quarantine{{Package: "com.q", Stage: "analyze"}},
	}
	m := shard.Merge([]*pipeline.Result{a, b, nil})
	if m.Funnel.Snapshot != 17 || m.Funnel.OnPlay != 9 || m.Funnel.Popular != 6 ||
		m.Funnel.Filtered != 5 || m.Funnel.Broken != 1 || m.Funnel.Analyzed != 4 {
		t.Fatalf("funnel not additive: %+v", m.Funnel)
	}
	order := []string{"com.alpha", "com.mid", "com.zeta"}
	for i, want := range order {
		if m.Apps[i].Package != want {
			t.Fatalf("apps not sorted: got %v at %d, want %v", m.Apps[i].Package, i, want)
		}
	}
	if m.Quarantined[0].Stage != "analyze" || m.Quarantined[1].Stage != "download" {
		t.Fatalf("quarantines not sorted by (package, stage): %+v", m.Quarantined)
	}
}

// --- lease lifecycle -----------------------------------------------------

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeGrant(t *testing.T, resp *http.Response) shard.LeaseGrant {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease: status %d", resp.StatusCode)
	}
	var g shard.LeaseGrant
	if err := json.NewDecoder(resp.Body).Decode(&g); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCoordinatorLeaseLifecycle(t *testing.T) {
	clock := newFakeClock()
	hub := telemetry.New(telemetry.Options{})
	ttl := 30 * time.Second
	coord, srv := startCoordinator(t, shard.CoordinatorConfig{
		Spec:      shard.RunSpec{Shards: 2, LeaseTTL: ttl, ConfigKey: "cfg-v1"},
		Telemetry: hub,
		Now:       clock.Now,
	})
	lease := func(worker string) shard.LeaseGrant {
		return decodeGrant(t, postJSON(t, srv.URL+"/v1/lease", map[string]string{"worker": worker}))
	}

	// Grant both partitions, then a third request must wait.
	g0, g1 := lease("w1"), lease("w2")
	if g0.Partition != 0 || g1.Partition != 1 {
		t.Fatalf("grants: %+v %+v", g0, g1)
	}
	if g0.Tag != shard.PartitionTag(0, 2) {
		t.Fatalf("grant tag %q, want %q", g0.Tag, shard.PartitionTag(0, 2))
	}
	if g := lease("w3"); !g.Wait {
		t.Fatalf("exhausted plane should answer wait, got %+v", g)
	}

	// Renewal by the holder extends; by anyone else is Gone.
	resp := postJSON(t, srv.URL+"/v1/renew", map[string]any{"worker": "w1", "partition": 0})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("holder renew: status %d", resp.StatusCode)
	}
	resp = postJSON(t, srv.URL+"/v1/renew", map[string]any{"worker": "w9", "partition": 0})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("foreign renew: status %d, want 410", resp.StatusCode)
	}

	// Result under a wrong config fingerprint is a conflict.
	resp = postJSON(t, srv.URL+"/v1/result", map[string]any{
		"worker": "w1", "partition": 0, "configKey": "cfg-v2", "result": &pipeline.Result{},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched config: status %d, want 409", resp.StatusCode)
	}

	// Expire w2's lease by advancing past TTL (w1 renewed, so its clock
	// budget is fresher — but the advance kills both; re-grant them).
	clock.Advance(ttl + time.Second)
	g0, g1 = lease("w4"), lease("w4")
	if g0.Partition != 0 || g1.Partition != 1 {
		t.Fatalf("expired partitions not re-issued: %+v %+v", g0, g1)
	}

	// A stale result from the original holder is refused.
	resp = postJSON(t, srv.URL+"/v1/result", map[string]any{
		"worker": "w1", "partition": 0, "configKey": "cfg-v1", "result": &pipeline.Result{},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stale result: status %d, want 410", resp.StatusCode)
	}

	// The live holder completes both partitions; the plane reports done.
	for p := 0; p < 2; p++ {
		resp = postJSON(t, srv.URL+"/v1/result", map[string]any{
			"worker": "w4", "partition": p, "configKey": "cfg-v1",
			"result": &pipeline.Result{Funnel: pipeline.Funnel{Snapshot: 1}},
		})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %d: status %d", p, resp.StatusCode)
		}
	}
	if g := lease("w5"); !g.Done {
		t.Fatalf("finished plane should answer done, got %+v", g)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	merged, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Funnel.Snapshot != 2 {
		t.Fatalf("merged snapshot = %d, want 2", merged.Funnel.Snapshot)
	}
	// A finished merge wins over a context that has ended too, as when
	// every worker exits right after seeing done.
	ended, end := context.WithCancel(context.Background())
	end()
	for range 20 {
		if _, err := coord.Wait(ended); err != nil {
			t.Fatalf("finished merge lost to an ended context: %v", err)
		}
	}

	// Telemetry saw the lifecycle: grants, a renewal, expiries, rejects,
	// accepted and refused results.
	var prom bytes.Buffer
	if err := hub.Registry().Snapshot().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`shard_lease_total{event="grant"} 4`,
		`shard_lease_total{event="renew"} 1`,
		`shard_lease_total{event="expire"} 2`,
		`shard_lease_total{event="reject"} 1`,
		`shard_results_total{status="accepted"} 2`,
		`shard_results_total{status="stale"} 1`,
		`shard_results_total{status="mismatch"} 1`,
		`shard_partitions_inflight 0`,
	} {
		if !bytes.Contains(prom.Bytes(), []byte(want)) {
			t.Fatalf("telemetry missing %q in:\n%s", want, prom.String())
		}
	}
}

// barrierRepo holds every download until each of shards partitions has
// one in flight: no partition can finish before all of them have started.
type barrierRepo struct {
	*testRepo
	shards int

	mu       sync.Mutex
	inFlight map[int]bool
	open     chan struct{}
}

func (r *barrierRepo) Download(ctx context.Context, pkg string) ([]byte, error) {
	r.mu.Lock()
	if p := shard.PartitionOf(pkg, r.shards); !r.inFlight[p] {
		r.inFlight[p] = true
		if len(r.inFlight) == r.shards {
			close(r.open)
		}
	}
	r.mu.Unlock()
	select {
	case <-r.open:
		return r.testRepo.Download(ctx, pkg)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestLeasesRunConcurrently pins that the plane scans leased partitions in
// parallel: with four partitions and four workers, every partition's first
// download blocks until all four have a download in flight, which only
// concurrently held leases can reach. A plane that serialised leases
// fails on the deadline instead of hanging.
func TestLeasesRunConcurrently(t *testing.T) {
	c := testCorpus(t)
	const shards = 4
	repo := &barrierRepo{
		testRepo: newTestRepo(c), shards: shards,
		inFlight: make(map[int]bool), open: make(chan struct{}),
	}
	coord, srv := startCoordinator(t, shard.CoordinatorConfig{Spec: shard.RunSpec{
		Shards:       shards,
		MinDownloads: corpus.MinDownloads,
		UpdatedAfter: corpus.UpdateCutoff,
		LeaseTTL:     time.Minute,
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	errs := runWorkers(ctx, t, srv.URL, shards, repo, &testMeta{c: c})
	select {
	case <-repo.open:
	default:
		repo.mu.Lock()
		defer repo.mu.Unlock()
		t.Fatalf("only %d of %d partitions ever had a download in flight at once", len(repo.inFlight), shards)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator wait: %v", err)
	}
}

func TestCoordinatorRejectsZeroShards(t *testing.T) {
	if _, err := shard.NewCoordinator(shard.CoordinatorConfig{}); err == nil {
		t.Fatal("coordinator accepted 0 shards")
	}
}

func TestWorkerNeedsCoordinatorAndName(t *testing.T) {
	if _, err := shard.NewWorker(shard.WorkerConfig{Name: "w"}); err == nil {
		t.Fatal("worker accepted empty coordinator")
	}
	if _, err := shard.NewWorker(shard.WorkerConfig{Coordinator: "http://x"}); err == nil {
		t.Fatal("worker accepted empty name")
	}
}
