// Fleet observability invariants of the scan plane:
//
//   - Determinism: the federated rollup and the stitched fleet trace are
//     byte-identical for the same seed at any shard/worker topology —
//     {1,1}, {4,2} and {4,4} all produce the same /fleet/metrics?view=rollup
//     and /fleet/trace bytes.
//   - Exactly-once: a worker killed mid-lease may flush its partial
//     cumulative snapshot (the graceful-shutdown path), but that data feeds
//     the live worker view only; after the partition is re-leased and
//     completed by a peer, the rollup counts every package exactly once.
package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// fleetSpec is the scan configuration shared by the fleet tests.
func fleetSpec(shards int, seed int64) shard.RunSpec {
	return shard.RunSpec{
		Shards:       shards,
		MinDownloads: corpus.MinDownloads,
		UpdatedAfter: corpus.UpdateCutoff,
		Lint:         true,
		URLs:         true,
		// A retry budget like the CLI's, so the federated exposition
		// carries the mirrored retry families (all zero on a clean run).
		Retries:  1,
		LeaseTTL: time.Minute,
		Seed:     seed,
	}
}

// fleetRun drives a full scan in process: coordinator on a real listener,
// nWorkers in-process workers. Returns the coordinator for reading the
// federated views, and the merged result.
func fleetRun(t *testing.T, c *corpus.Corpus, shards, nWorkers int, seed int64) (*shard.Coordinator, *pipeline.Result) {
	t.Helper()
	coord, srv := startCoordinator(t, shard.CoordinatorConfig{Spec: fleetSpec(shards, seed)})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	errs := runWorkers(ctx, t, srv.URL, nWorkers, newTestRepo(c), &testMeta{c: c})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	merged, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("coordinator wait: %v", err)
	}
	return coord, merged
}

// rollupAndTrace snapshots the two byte-identity surfaces.
func rollupAndTrace(t *testing.T, coord *shard.Coordinator) (string, string) {
	t.Helper()
	fed := coord.Fleet()
	var prom, trace bytes.Buffer
	if err := fed.WriteRollupProm(&prom); err != nil {
		t.Fatal(err)
	}
	if err := fed.WriteTraceJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	return prom.String(), trace.String()
}

// TestFleetRollupAndTraceDeterministicAcrossTopologies is the federation
// determinism tentpole: same seed, three topologies, byte-identical
// federated metrics rollup and stitched fleet trace.
func TestFleetRollupAndTraceDeterministicAcrossTopologies(t *testing.T) {
	c := testCorpus(t)
	const seed = 3

	refCoord, refMerged := fleetRun(t, c, 1, 1, seed)
	refProm, refTrace := rollupAndTrace(t, refCoord)
	if refProm == "" {
		t.Fatal("reference rollup is empty")
	}
	if !strings.Contains(refTrace, `"trace":"apk:`) {
		t.Fatalf("stitched trace carries no per-APK spans:\n%.400s", refTrace)
	}
	// The rollup accounts for every analysed APK.
	if got := refCoord.Fleet().RollupCounts().APKs; got != int64(refMerged.Funnel.Filtered) {
		t.Fatalf("rollup counted %d APKs, funnel has %d", got, refMerged.Funnel.Filtered)
	}

	for _, tc := range []struct{ shards, workers int }{
		{4, 2},
		{4, 4},
	} {
		t.Run(fmt.Sprintf("%dshards_%dworkers", tc.shards, tc.workers), func(t *testing.T) {
			coord, _ := fleetRun(t, c, tc.shards, tc.workers, seed)
			prom, trace := rollupAndTrace(t, coord)
			if prom != refProm {
				t.Fatalf("federated rollup diverged from the 1-shard reference:\n--- %d/%d ---\n%.800s\n--- reference ---\n%.800s",
					tc.shards, tc.workers, prom, refProm)
			}
			if trace != refTrace {
				t.Fatalf("stitched fleet trace diverged from the 1-shard reference (%d vs %d bytes)",
					len(trace), len(refTrace))
			}
		})
	}
}

// TestFleetEndpointsServeFederatedViews covers the HTTP surface: the
// /fleet/* endpoints answer with the expected families, the shard-labeled
// exposition reconciles (fleet == Σ shards), and the status document
// reflects the finished run.
func TestFleetEndpointsServeFederatedViews(t *testing.T) {
	c := testCorpus(t)
	coord, merged := fleetRun(t, c, 4, 2, 3)
	srv := startFleetServer(t, coord)

	get := func(path string) string {
		resp, err := http.Get(srv + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/fleet/metrics")
	for _, fam := range []string{
		"pipeline_stage_items_total", "pipeline_stage_latency_seconds",
		"pipeline_cache_total", "retry_retries_total",
	} {
		if !strings.Contains(metrics, fam) {
			t.Fatalf("/fleet/metrics missing family %s:\n%.600s", fam, metrics)
		}
	}
	// Reconciliation: the shard="fleet" rollup series equals the sum of the
	// per-shard series for the download-out counter.
	snap, err := telemetry.DecodeSnapshot([]byte(get("/fleet/metrics.json")))
	if err != nil {
		t.Fatalf("decode /fleet/metrics.json: %v", err)
	}
	items := snap.Family("pipeline_stage_items_total")
	if items == nil {
		t.Fatal("no pipeline_stage_items_total family")
	}
	var shardSum, fleetVal int64
	for _, m := range items.Metrics {
		if m.Labels["stage"] != "download" || m.Labels["dir"] != "out" {
			continue
		}
		if m.Labels["shard"] == "fleet" {
			fleetVal = *m.Value
		} else {
			shardSum += *m.Value
		}
	}
	if fleetVal == 0 || fleetVal != shardSum {
		t.Fatalf("fleet != sum(shards): fleet=%v sum=%v", fleetVal, shardSum)
	}
	if int(fleetVal) != merged.Funnel.Filtered {
		t.Fatalf("fleet download-out %v, funnel filtered %d", fleetVal, merged.Funnel.Filtered)
	}

	if rollup := get("/fleet/metrics?view=rollup"); strings.Contains(rollup, `shard="`) {
		t.Fatalf("rollup view carries shard labels:\n%.400s", rollup)
	}

	status := get("/fleet/status")
	for _, want := range []string{`"finished":true`, `"shards":4`, `"stageLatency"`} {
		if !strings.Contains(status, want) {
			t.Fatalf("/fleet/status missing %s:\n%s", want, status)
		}
	}
	text := get("/fleet/status?format=text")
	if !strings.Contains(text, "fleet finished · 4/4 partitions done") {
		t.Fatalf("text status unexpected:\n%s", text)
	}

	trace := get("/fleet/trace")
	if !strings.Contains(trace, `"trace":"apk:`) {
		t.Fatalf("/fleet/trace carries no per-APK spans:\n%.400s", trace)
	}
	if strings.Contains(trace, `"span":"partition:`) || strings.Contains(trace, `"span":"run:`) {
		t.Fatalf("/fleet/trace leaked control spans:\n%.400s", trace)
	}
	control := get("/fleet/trace?view=control")
	if !strings.Contains(control, `"span":"run:`) {
		t.Fatalf("control view missing worker run spans:\n%.400s", control)
	}
}

// TestFleetChaosPartialSnapshotNeverDoubleCounts is the federation chaos
// invariant: a worker killed mid-lease flushes its partial cumulative
// snapshot on the way down; after its partition is re-leased and completed
// by a peer, the rollup counts every package exactly once — the partial
// data lives in the live worker view only.
func TestFleetChaosPartialSnapshotNeverDoubleCounts(t *testing.T) {
	c := testCorpus(t)
	const shards = 4
	const seed = 3

	part0 := 0
	for _, s := range c.Apps {
		if s.Eligible(corpus.MinDownloads, corpus.UpdateCutoff) && shard.PartitionOf(s.Package, shards) == 0 {
			part0++
		}
	}
	if part0 < 6 {
		t.Fatalf("partition 0 has only %d eligible apps; corpus too small for a mid-lease kill", part0)
	}
	killAfter := part0 - 3

	clock := newFakeClock()
	hub := telemetry.New(telemetry.Options{})
	ttl := time.Hour
	cacheDir := t.TempDir()
	spec := fleetSpec(shards, seed)
	spec.Lint, spec.URLs = false, false
	spec.CacheDir = cacheDir
	spec.LeaseTTL = ttl
	coord, srv := startCoordinator(t, shard.CoordinatorConfig{
		Spec:      spec,
		Telemetry: hub,
		Now:       clock.Now,
	})

	repo := newTestRepo(c)
	ctxA, killA := context.WithCancel(context.Background())
	defer killA()
	var downloads atomic.Int64
	repo.setOnDownload(func(pkg string, nth int) {
		if downloads.Add(1) == int64(killAfter) {
			killA()
		}
	})
	wA, err := shard.NewWorker(shard.WorkerConfig{
		Coordinator: srv.URL,
		Name:        "doomed",
		Poll:        10 * time.Millisecond,
		Services:    inProcessServices(repo, &testMeta{c: c}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wA.Run(ctxA); err == nil {
		t.Fatal("killed worker reported a clean run")
	}
	repo.setOnDownload(nil)

	// The dying worker's graceful-shutdown flush reached the coordinator
	// with its partial counters — in the worker view, not the rollup.
	fed := coord.Fleet()
	doomedCounts, ok := fed.WorkerCounts("doomed")
	if !ok || doomedCounts.APKs == 0 {
		t.Fatalf("doomed worker's final flush not recorded (counts %+v, ok %v)", doomedCounts, ok)
	}
	if got := fed.RollupCounts().APKs; got != 0 {
		t.Fatalf("rollup counted %d APKs from an unaccepted partition", got)
	}

	stored := blobCount(t, cacheDir)
	if stored == 0 || stored >= part0 {
		t.Fatalf("kill landed outside mid-partition: %d of %d stored", stored, part0)
	}

	clock.Advance(ttl + time.Second)

	wB, err := shard.NewWorker(shard.WorkerConfig{
		Coordinator: srv.URL,
		Name:        "survivor",
		Poll:        10 * time.Millisecond,
		Services:    inProcessServices(repo, &testMeta{c: c}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := wB.Run(ctx); err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
	merged, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Exactly-once fleet accounting: the rollup counts every filtered
	// package into the download stage once, the survivor's, and the
	// survivor analysed none of the dead worker's stored packages again.
	assertSurvivorResumedFromCache(t, coord, merged, plainRun(t, c), stored)

	// The snapshot ledger: two final flushes (the doomed worker on its way
	// down, the survivor on clean exit) and four accepted result deltas
	// (the survivor's partitions).
	var prom bytes.Buffer
	if err := hub.Registry().Snapshot().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`fleet_snapshot_total{source="final"} 2`,
		`fleet_snapshot_total{source="result"} 4`,
	} {
		if !bytes.Contains(prom.Bytes(), []byte(want)) {
			t.Fatalf("snapshot ledger missing %q in:\n%s", want, prom.String())
		}
	}
}

// TestFleetStatusIsTheOnlyScrapingView registers a worker's live
// endpoint through a lease and counts the requests it receives: the
// /fleet/metrics views render accepted partition deltas only and must not
// scrape it, while /fleet/status, which shows per-worker views, does.
func TestFleetStatusIsTheOnlyScrapingView(t *testing.T) {
	var scrapes atomic.Int64
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		scrapes.Add(1)
		telemetry.New(telemetry.Options{}).Registry().Snapshot().WriteJSON(w)
	}))
	defer live.Close()
	_, srv := startCoordinator(t, shard.CoordinatorConfig{
		Spec: shard.RunSpec{Shards: 2, LeaseTTL: time.Minute},
	})
	decodeGrant(t, postJSON(t, srv.URL+"/v1/lease",
		map[string]string{"worker": "w1", "metricsUrl": live.URL + "/metrics.json"}))

	get := func(path string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	get("/fleet/metrics")
	get("/fleet/metrics.json")
	if n := scrapes.Load(); n != 0 {
		t.Fatalf("the metrics views scraped the worker %d times, want 0", n)
	}
	get("/fleet/status")
	if n := scrapes.Load(); n != 1 {
		t.Fatalf("/fleet/status scraped the worker %d times, want 1", n)
	}
}

// TestLeaseCannotAimTheScraper announces loopback URLs that are not
// http://<the lease's own IP>:<port>/metrics.json: the leases are still
// answered, but /fleet/status must fetch none of them.
func TestLeaseCannotAimTheScraper(t *testing.T) {
	var requests atomic.Int64
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
	}))
	defer target.Close()
	_, srv := startCoordinator(t, shard.CoordinatorConfig{
		Spec: shard.RunSpec{Shards: 2, LeaseTTL: time.Minute},
	})
	port := strings.TrimPrefix(target.URL, "http://127.0.0.1:")
	announced := []string{
		target.URL + "/internal/admin?x=0",
		target.URL + "/internal/admin?x=1",
		target.URL + "/metrics.json?x=2",
		target.URL + "/metrics.json#x=3",
		"http://user@127.0.0.1:" + port + "/metrics.json",
		"http://localhost:" + port + "/metrics.json",
	}
	for i, u := range announced {
		g := decodeGrant(t, postJSON(t, srv.URL+"/v1/lease", map[string]string{
			"worker": fmt.Sprintf("w%d", i), "metricsUrl": u}))
		if i < 2 && g.Partition != i {
			t.Fatalf("lease %d: granted partition %d, want %d", i, g.Partition, i)
		}
	}
	resp, err := http.Get(srv.URL + "/fleet/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /fleet/status: status %d", resp.StatusCode)
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("/fleet/status fetched the announced URLs %d times, want 0", n)
	}
}

// TestFleetRefusesBadSnapshotKeepsReport pins the decoder boundary on
// POST /v1/result and /v1/snapshot: a delta that fails to decode, or
// that conflicts with an accepted one, is refused and counted as
// bad_snapshot while its report still merges; a bad final flush is a 400.
func TestFleetRefusesBadSnapshotKeepsReport(t *testing.T) {
	hub := telemetry.New(telemetry.Options{})
	coord, srv := startCoordinator(t, shard.CoordinatorConfig{
		Spec:      shard.RunSpec{Shards: 3, LeaseTTL: time.Minute},
		Telemetry: hub,
	})
	deltas := []string{
		`{"families":[{"name":"x_total","type":"counter","metrics":[{"value":1}]}]}`,
		`{"families":[{"name":"x total","type":"counter","metrics":[{"value":1}]}]}`,
		`{"families":[{"name":"x_total","type":"gauge","metrics":[{"value":1}]}]}`,
	}
	for p, delta := range deltas {
		g := decodeGrant(t, postJSON(t, srv.URL+"/v1/lease", map[string]string{"worker": "w"}))
		resp := postJSON(t, srv.URL+"/v1/result", map[string]any{
			"worker": "w", "partition": g.Partition, "metrics": json.RawMessage(delta),
			"result": &pipeline.Result{Funnel: pipeline.Funnel{Snapshot: 1}},
		})
		resp.Body.Close()
		if g.Partition != p || resp.StatusCode != http.StatusOK {
			t.Fatalf("partition %d: grant %d, result status %d", p, g.Partition, resp.StatusCode)
		}
	}
	merged, err := coord.Wait(context.Background())
	if err != nil || merged.Funnel.Snapshot != 3 {
		t.Fatalf("merged report lost partitions: %+v, %v", merged, err)
	}
	if got := sampleOf(coord.Fleet().Rollup(), "x_total"); got != 1 {
		t.Errorf("rollup x_total = %d, want only the valid delta's 1", got)
	}
	for body, want := range map[string]int{
		`{"worker":"w","metrics":{"families":[{"name":"h","type":"histogram","metrics":[{"count":1,"sum":0,"buckets":[{"le":"1","count":1}]}]}]}}`: http.StatusBadRequest,
		`{"worker":"w","metrics":{"families":[]}}`: http.StatusOK,
	} {
		resp, err := http.Post(srv.URL+"/v1/snapshot", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST /v1/snapshot %s: status %d, want %d", body, resp.StatusCode, want)
		}
	}
	var prom bytes.Buffer
	if err := hub.Registry().Snapshot().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`shard_results_total{status="accepted"} 3`,
		`shard_results_total{status="bad_snapshot"} 2`,
		`fleet_snapshot_total{source="result"} 1`,
		`fleet_snapshot_total{source="final"} 1`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("telemetry missing %q in:\n%s", want, prom.String())
		}
	}
}

// --- helpers -------------------------------------------------------------

// startFleetServer mounts an already-finished coordinator's handler and
// returns its base URL.
func startFleetServer(t *testing.T, coord *shard.Coordinator) string {
	t.Helper()
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// sampleOf reads one counter series from a snapshot (0 when absent).
func sampleOf(snap *telemetry.Snapshot, fam string, labels ...string) int64 {
	if m := snap.Family(fam).Series(labels...); m != nil {
		return *m.Value
	}
	return 0
}
