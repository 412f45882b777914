package crawler

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// crawlTelemetry runs one crawl over a 2-device farm with the given worker
// count and returns the canonical metrics JSON and trace JSONL. The farm
// size is held constant across calls: device labels derive from the lane →
// device pinning, so only an identical farm can produce identical series.
func crawlTelemetry(t *testing.T, workers int) (metrics, trace string) {
	t.Helper()
	hub := telemetry.New(telemetry.Options{Timing: telemetry.SeededTiming{Seed: 5}, Tracing: true})
	farm, sites := fleetHarnessHub(t, 2, 3, 0, hub)
	cfg := crawlConfig(sites, workers)
	cfg.Telemetry = hub
	if _, err := NewFleet(farm.Clients, cfg).Run(); err != nil {
		t.Fatalf("Run (workers=%d): %v", workers, err)
	}
	var mb, tb bytes.Buffer
	if err := hub.Registry().Snapshot().WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	if err := hub.Tracer().WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	return mb.String(), tb.String()
}

// TestCrawlTelemetryScheduleIndependent crawls the same sites over the
// same 2-device farm sequentially and with 4 workers: visit counters,
// latency histograms, per-device command totals and the per-visit traces
// must be byte-identical — the crawl's schedule leaves no telemetry
// residue.
func TestCrawlTelemetryScheduleIndependent(t *testing.T) {
	seqMetrics, seqTrace := crawlTelemetry(t, 1)
	parMetrics, parTrace := crawlTelemetry(t, 4)
	if seqMetrics != parMetrics {
		t.Errorf("metrics diverge between workers=1 and workers=4:\n--- seq ---\n%s\n--- par ---\n%s", seqMetrics, parMetrics)
	}
	if seqTrace != parTrace {
		t.Errorf("traces diverge between workers=1 and workers=4")
	}

	// The families the smoke job asserts over must be present and hot.
	for _, fam := range []string{
		"crawl_visits_total", "crawl_visit_latency_seconds",
		"adb_commands_total", "netlog_purges_total",
	} {
		if !strings.Contains(seqMetrics, `"name": "`+fam+`"`) {
			t.Errorf("family %s missing from snapshot", fam)
		}
	}
}
