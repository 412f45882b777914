package pipeline_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/playstore"
	"repro/internal/retry"
	"repro/internal/telemetry"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

// storeRequests counts the requests a Play Store handler answers and
// answers the ones whose list starts with fail with a 503.
type storeRequests struct {
	real http.Handler
	fail string

	mu    sync.Mutex
	paths []string
}

func (s *storeRequests) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.paths = append(s.paths, r.URL.Path)
	s.mu.Unlock()
	if s.fail != "" && strings.HasPrefix(r.URL.Path, "/v1/apps/"+s.fail+",") {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
		return
	}
	s.real.ServeHTTP(w, r)
}

func (s *storeRequests) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.paths)
}

// playClient serves c's store through h's counter and returns a client of
// it.
func playClient(t *testing.T, c *corpus.Corpus, h *storeRequests) *playstore.Client {
	t.Helper()
	h.real = playstore.NewServer(c).Handler()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return playstore.NewClient(srv.URL, srv.Client())
}

// untimed is res without the fields that read a clock or the schedule:
// stage wall times and the in-flight high-water mark.
func untimed(res *pipeline.Result) pipeline.Result {
	out := *res
	s := &out.Stats
	for _, st := range []*pipeline.StageStats{&s.List, &s.Metadata, &s.Download, &s.Analyze, &s.Lint, &s.URLs} {
		st.Wall = 0
	}
	s.Total, s.PeakInFlightBytes = 0, 0
	return out
}

// TestBatchedLookupMatchesPerPackage runs one study over the HTTP Play
// Store client, which looks each feed chunk up in one request, and over
// an in-memory source looked up package by package. The results and the
// seeded telemetry, retry families included, must be the same.
func TestBatchedLookupMatchesPerPackage(t *testing.T) {
	c := chaosCorpus(t)
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(meta pipeline.MetadataSource) (*pipeline.Result, string, string) {
		hub := telemetry.New(telemetry.Options{Timing: telemetry.SeededTiming{Seed: 11}, Tracing: true})
		res, err := pipeline.New(newChaosRepo(c), meta, pipeline.Config{
			MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
			Lint: lint, URLs: urlextract.New(urlextract.Config{}),
			Retry:     chaosPolicy(&retry.Metrics{}),
			Telemetry: hub,
		}).Run(context.Background())
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		var mb, tb bytes.Buffer
		if err := hub.Registry().Snapshot().WriteJSON(&mb); err != nil {
			t.Fatal(err)
		}
		if err := hub.Tracer().WriteJSONL(&tb); err != nil {
			t.Fatal(err)
		}
		return res, mb.String(), tb.String()
	}

	client := playClient(t, c, &storeRequests{})
	if _, ok := pipeline.MetadataSource(client).(pipeline.BatchMetadataSource); !ok {
		t.Fatal("the Play Store client does not batch")
	}
	batched, bm, bt := run(client)
	perPackage, pm, pt := run(&chaosMeta{c: c})
	if got, want := untimed(batched), untimed(perPackage); !reflect.DeepEqual(got, want) {
		t.Errorf("batched result differs from the per-package one:\n%+v\n%+v", got.Stats, want.Stats)
	}
	if bm != pm {
		t.Errorf("batched metrics differ from the per-package ones:\n%s\n---\n%s", bm, pm)
	}
	if bt != pt {
		t.Error("batched trace differs from the per-package one")
	}
}

// TestBatchedLookupRequestsAndRetryCounts counts the Play Store requests
// of a sequential run: one per feed chunk. The retry metrics still count
// one attempt per package looked up or downloaded, and the absent apps,
// most of the snapshot, are answers: no failures.
func TestBatchedLookupRequestsAndRetryCounts(t *testing.T) {
	c := chaosCorpus(t)
	h := &storeRequests{}
	m := &retry.Metrics{}
	res, err := pipeline.New(newChaosRepo(c), playClient(t, c, h), pipeline.Config{
		MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
		Workers: 1, Retry: chaosPolicy(m),
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snapshot := res.Funnel.Snapshot
	if want := (snapshot + playstore.MaxBatch - 1) / playstore.MaxBatch; h.count() != want {
		t.Errorf("%d Play Store requests for %d packages, want %d", h.count(), snapshot, want)
	}
	if res.Funnel.OnPlay >= snapshot/2 {
		t.Fatalf("%d of %d apps listed: absent apps must dominate", res.Funnel.OnPlay, snapshot)
	}
	if got, want := m.Attempts.Load(), int64(snapshot+res.Funnel.Filtered); got != want {
		t.Errorf("retry attempts = %d, want %d lookups + %d downloads", got, snapshot, res.Funnel.Filtered)
	}
	if m.Retries.Load() != 0 || m.Failures.Load() != 0 {
		t.Errorf("clean run: %d retries, %d failures; want 0, 0", m.Retries.Load(), m.Failures.Load())
	}
}

// TestBatchGivingUpQuarantinesItsChunk 503s every request for one feed
// chunk. Its lookup gives up after its retries, and exactly that chunk's
// packages are quarantined, each counted as one failed operation with its
// retries; every other chunk is served.
func TestBatchGivingUpQuarantinesItsChunk(t *testing.T) {
	c := chaosCorpus(t)
	clean := cleanRun(t, c)
	pkgs, err := newChaosRepo(c).List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The chunk lost is the first to hold an app the clean run analysed.
	analysed := make(map[string]bool, len(clean.Apps))
	for _, app := range clean.Apps {
		analysed[app.Package] = true
	}
	var lost []string
	for i := 0; lost == nil; i += playstore.MaxBatch {
		for _, pkg := range pkgs[i:min(i+playstore.MaxBatch, len(pkgs))] {
			if analysed[pkg] {
				lost = pkgs[i:min(i+playstore.MaxBatch, len(pkgs))]
				break
			}
		}
	}
	h := &storeRequests{fail: lost[0]}
	m := &retry.Metrics{}
	const attempts = 3
	res, err := pipeline.New(newChaosRepo(c), playClient(t, c, h), pipeline.Config{
		MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
		Retry:          &retry.Policy{MaxAttempts: attempts, Seed: 1, Metrics: m, Sleep: nopSleep},
		MaxFailureFrac: 0.1,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var quarantined []string
	for _, q := range res.Quarantined {
		if q.Stage != "metadata" {
			t.Errorf("%s quarantined at %s, want metadata", q.Package, q.Stage)
		}
		quarantined = append(quarantined, q.Package)
	}
	want := append([]string(nil), lost...)
	sort.Strings(want)
	if !reflect.DeepEqual(quarantined, want) {
		t.Errorf("quarantined %d packages %q, want the failing chunk's %d", len(quarantined), quarantined, len(want))
	}
	if got := res.Stats.Metadata.Quarantined; got != len(lost) {
		t.Errorf("metadata quarantines = %d, want %d", got, len(lost))
	}
	n := int64(len(lost))
	if m.Failures.Load() != n || m.Retries.Load() != n*(attempts-1) || res.Stats.Retries != n*(attempts-1) {
		t.Errorf("failures %d, retries %d (stats %d); want %d, %d", m.Failures.Load(), m.Retries.Load(),
			res.Stats.Retries, n, n*(attempts-1))
	}
	if want := (len(pkgs)+playstore.MaxBatch-1)/playstore.MaxBatch + attempts - 1; h.count() != want {
		t.Errorf("%d Play Store requests, want %d", h.count(), want)
	}
	inLost := make(map[string]bool, len(lost))
	for _, pkg := range lost {
		inLost[pkg] = true
	}
	var kept []pipeline.AppResult
	for _, app := range clean.Apps {
		if !inLost[app.Package] {
			kept = append(kept, app)
		}
	}
	if !reflect.DeepEqual(res.Apps, kept) {
		t.Errorf("%d apps analysed, want the clean run's %d outside the lost chunk", len(res.Apps), len(kept))
	}
}

// countingBatch counts the calls a pipeline makes into a batching source.
type countingBatch struct {
	pipeline.BatchMetadataSource
	lookups, singles atomic.Int64
}

func (c *countingBatch) Metadata(ctx context.Context, pkg string) (playstore.Metadata, error) {
	c.singles.Add(1)
	return c.BatchMetadataSource.Metadata(ctx, pkg)
}

func (c *countingBatch) Lookup(ctx context.Context, pkgs []string) ([]*playstore.Metadata, error) {
	c.lookups.Add(1)
	return c.BatchMetadataSource.Lookup(ctx, pkgs)
}

// TestChaosBatchedLookupsMatchFaultFree is the chaos invariant over the
// path a fault-free run takes: the fault wrapper of the Play Store client
// batches too, so the injected errors and latency land on whole-chunk
// lookups, which retries absorb; the tables match a fault-free run's.
func TestChaosBatchedLookupsMatchFaultFree(t *testing.T) {
	c := chaosCorpus(t)
	want := renderTables(cleanRun(t, c))
	fcfg := faults.Config{Seed: 7, ErrorRate: 0.1, LatencyRate: 0.1, Latency: 200 * time.Microsecond}
	inner, ok := faults.NewMetadataSource(playClient(t, c, &storeRequests{}), fcfg).(pipeline.BatchMetadataSource)
	if !ok {
		t.Fatal("the fault wrapper of the Play Store client does not batch")
	}
	meta := &countingBatch{BatchMetadataSource: inner}
	res, err := pipeline.New(faults.NewRepository(newChaosRepo(c), fcfg), meta, pipeline.Config{
		MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
		Retry: chaosPolicy(&retry.Metrics{}),
	}).Run(context.Background())
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	chunks := int64((res.Funnel.Snapshot + playstore.MaxBatch - 1) / playstore.MaxBatch)
	if n := meta.singles.Load(); n != 0 {
		t.Errorf("%d per-package lookups over a batching source", n)
	}
	if n := meta.lookups.Load(); n <= chunks {
		t.Fatalf("%d lookups for %d chunks: no fault reached the batched path", n, chunks)
	}
	if len(res.Quarantined) != 0 {
		t.Errorf("retries should have absorbed every fault; quarantined: %+v", res.Quarantined)
	}
	if got := renderTables(res); got != want {
		t.Errorf("faulted run diverged from fault-free run:\n--- fault-free ---\n%s\n--- faulted ---\n%s", want, got)
	}
}
