package fleet

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestTraceIDSeedDerived pins the fleet trace-id contract: stable for a
// seed (every process derives the same id independently), distinct across
// seeds, and carrying the fleet- prefix the stitcher and tests key on.
func TestTraceIDSeedDerived(t *testing.T) {
	a, b := TraceID(42), TraceID(42)
	if a != b {
		t.Errorf("TraceID(42) unstable: %q vs %q", a, b)
	}
	if !strings.HasPrefix(a, "fleet-") || len(a) != len("fleet-")+16 {
		t.Errorf("TraceID(42) = %q, want fleet-<16 hex>", a)
	}
	if TraceID(43) == a {
		t.Errorf("TraceID(43) collides with TraceID(42): %q", a)
	}
}

// TestQuantilesFromHistogram covers the quantile helper behind
// /fleet/status: known observations into the stage latency histogram
// yield ordered, plausible percentiles.
func TestQuantilesFromHistogram(t *testing.T) {
	r := telemetry.NewRegistry()
	h := r.Histogram("pipeline_stage_latency_seconds", "stage latency",
		[]float64{0.1, 0.5, 1, 5}, "stage", "download")
	for i := 0; i < 90; i++ {
		h.Observe(0.05) // bulk of the traffic in the first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(2.0) // slow tail in the (1, 5] bucket
	}
	snap := r.Snapshot()
	q, ok := QuantilesOf(snap.Family("pipeline_stage_latency_seconds").Series("stage", "download"))
	if !ok {
		t.Fatal("QuantilesOf reported no data")
	}
	if !(q.P50 <= q.P95 && q.P95 <= q.P99) {
		t.Errorf("quantiles out of order: %+v", q)
	}
	if q.P50 > 0.1 {
		t.Errorf("p50 = %v, want within the first bucket (≤0.1)", q.P50)
	}
	if q.P99 <= 1 || q.P99 > 5 {
		t.Errorf("p99 = %v, want in the slow-tail bucket (1, 5]", q.P99)
	}

	byStage := StageQuantiles(snap)
	if _, ok := byStage["download"]; !ok {
		t.Errorf("StageQuantiles missing download stage: %v", byStage)
	}
	if _, ok := byStage["lint"]; ok {
		t.Error("StageQuantiles invented a stage with no data")
	}
}

// TestQuantilesOfMissingSeries covers the no-data path.
func TestQuantilesOfMissingSeries(t *testing.T) {
	if _, ok := QuantilesOf(nil); ok {
		t.Error("QuantilesOf on a missing series reported data")
	}
	if _, ok := QuantilesOf(&telemetry.SeriesSnapshot{}); ok {
		t.Error("QuantilesOf on an empty series reported data")
	}
	if StageQuantiles(&telemetry.Snapshot{}) != nil {
		t.Error("StageQuantiles without the latency family should be nil")
	}
}

// TestRenderStatusText smoke-tests the -fleet-status rendering: every
// section of a busy fleet shows up, including lease detail and staleness.
func TestRenderStatusText(t *testing.T) {
	doc := &StatusDoc{
		Shards: 4, Seed: 42, TraceID: TraceID(42), CorpusSize: 2500,
		Done: 2, Leased: 1, Pending: 1,
		Fleet:      Counts{APKs: 1200, CacheHits: 300, Retries: 2, Quarantined: 1},
		APKsPerSec: 12.5, ElapsedS: 96, ETASeconds: 104,
		StageLatency: map[string]Quantiles{
			"download": {P50: 0.05, P95: 0.4, P99: 1.8},
		},
		Partitions: []PartitionStatus{
			{Partition: 0, Tag: "0/4", State: "done", Worker: "w-1", APKs: 600, WallS: 48, APKsPerSec: 12.5},
			{Partition: 1, Tag: "1/4", State: "leased", Worker: "w-2", LeaseExpiresInS: 21, RenewAgeS: 9},
			{Partition: 2, Tag: "2/4", State: "pending"},
		},
		Workers: []WorkerStatus{
			{Name: "w-1", LastSeenAgoS: 2, APKs: 600, Flushed: true},
			{Name: "w-2", LastSeenAgoS: 45, Stale: true, ScrapeErr: "connection refused"},
		},
	}
	var sb strings.Builder
	if err := RenderStatus(&sb, doc); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"fleet running · 2/4 partitions done · 1 leased · 1 pending",
		"1200 apks of 2500 corpus entries",
		"12.5 apks/s",
		"eta",
		"cache hits 300 · retries 2 · quarantined 1",
		"download 0.050s/0.400s/1.800s",
		"lease expires in",
		"[STALE]",
		"[flushed]",
		"scrape error: connection refused",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("status text missing %q:\n%s", want, out)
		}
	}

	// A finished fleet drops the ETA and flips the headline state.
	doc.Finished, doc.ETASeconds = true, 0
	sb.Reset()
	if err := RenderStatus(&sb, doc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fleet finished") || strings.Contains(sb.String(), "eta") {
		t.Errorf("finished rendering wrong:\n%s", sb.String())
	}
}

// TestFlushedMergesFinalSnapshots covers a failed run's metrics: the
// final snapshots workers flushed, summed, and none when two of them
// conflict, since /v1/snapshot takes a flush from any worker.
func TestFlushedMergesFinalSnapshots(t *testing.T) {
	f := New(Config{})
	for _, worker := range []string{"b", "a"} {
		if err := f.FinalFlush(worker, []byte(`{"families":[{"name":"x_total","type":"counter","metrics":[{"value":2}]}]}`)); err != nil {
			t.Fatal(err)
		}
	}
	f.RegisterWorker("c", "")
	if m := f.Flushed().Family("x_total").Series(); m == nil || *m.Value != 4 {
		t.Fatalf("flushed x_total = %+v, want the two flushes' 4", m)
	}
	if err := f.FinalFlush("d", []byte(`{"families":[{"name":"x_total","type":"gauge","metrics":[{"value":1}]}]}`)); err != nil {
		t.Fatal(err)
	}
	if fams := f.Flushed().Families; len(fams) != 0 {
		t.Fatalf("conflicting flushes merged into %+v, want no family", fams)
	}
}
