package shard_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

// renderAllTables renders every static-study table and figure — including
// the lint and urlextract tables — which together are the byte-identical
// surface the merge invariant is asserted over.
func renderAllTables(t *testing.T, res *pipeline.Result) string {
	t.Helper()
	aggs := pipeline.Aggregate(res)
	var sb strings.Builder
	sb.WriteString(report.Table2(res.Funnel, 2500))
	sb.WriteString(report.Table3(aggs))
	sb.WriteString(report.TopSDKTable(aggs, false, 2500))
	sb.WriteString(report.TopSDKTable(aggs, true, 2500))
	sb.WriteString(report.Table7(aggs, 2500))
	sb.WriteString(report.Figure3(aggs))
	sb.WriteString(report.Figure4(aggs))
	sb.WriteString(report.LintTable(aggs))
	sb.WriteString(report.URLTable(res.Apps))
	return sb.String()
}

// sequentialRun is the single-process reference: the plain pipeline over
// the whole snapshot, lint and URL stages on.
func sequentialRun(t *testing.T, c *corpus.Corpus) *pipeline.Result {
	t.Helper()
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.New(newTestRepo(c), &testMeta{c: c}, pipeline.Config{
		MinDownloads: corpus.MinDownloads,
		UpdatedAfter: corpus.UpdateCutoff,
		Lint:         lint,
		URLs:         urlextract.New(urlextract.Config{}),
	})
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return res
}

// TestShardedRunMatchesSequential is the tentpole invariant: the merged
// report from 1 and from 4 worker shards is identical to the sequential
// single-process report — funnel counts, every per-app row, and all
// rendered tables including lint and urlextract.
func TestShardedRunMatchesSequential(t *testing.T) {
	c := testCorpus(t)
	seq := sequentialRun(t, c)
	seqTables := renderAllTables(t, seq)

	for _, tc := range []struct{ shards, workers int }{
		{1, 1},
		{4, 2},
		{4, 4},
	} {
		t.Run(fmt.Sprintf("%dshards_%dworkers", tc.shards, tc.workers), func(t *testing.T) {
			_, merged := fleetRun(t, c, tc.shards, tc.workers, 3)
			if merged.Funnel != seq.Funnel {
				t.Fatalf("funnel diverged:\n  sharded    %+v\n  sequential %+v", merged.Funnel, seq.Funnel)
			}
			if !reflect.DeepEqual(merged.Apps, seq.Apps) {
				t.Fatal("per-app results diverged from the sequential run")
			}
			if !reflect.DeepEqual(merged.Quarantined, seq.Quarantined) {
				t.Fatalf("quarantines diverged: %+v vs %+v", merged.Quarantined, seq.Quarantined)
			}
			if got := renderAllTables(t, merged); got != seqTables {
				t.Fatalf("rendered tables diverged from the sequential run:\n--- sharded ---\n%s\n--- sequential ---\n%s", got, seqTables)
			}
		})
	}
}

// TestLocalWorkerMatchesRemoteWorkers runs four partitions over a worker
// in the coordinator's process, which leases and submits through direct
// calls, beside one that joins over HTTP, and requires the merged report,
// the federated rollup and the stitched trace of a one-partition run.
func TestLocalWorkerMatchesRemoteWorkers(t *testing.T) {
	c := testCorpus(t)
	refCoord, ref := fleetRun(t, c, 1, 1, 3)
	refProm, refTrace := rollupAndTrace(t, refCoord)

	coord, srv := startCoordinator(t, shard.CoordinatorConfig{Spec: fleetSpec(4, 3)})
	local, err := shard.NewWorker(shard.WorkerConfig{
		Local:    coord,
		Name:     "local",
		Poll:     10 * time.Millisecond,
		Services: inProcessServices(newTestRepo(c), &testMeta{c: c}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	localErr := make(chan error, 1)
	go func() { localErr <- local.Run(ctx) }()
	// The remote worker joins once the local one has asked for a lease.
	for len(coord.Fleet().Workers()) == 0 {
		select {
		case err := <-localErr:
			t.Fatalf("local worker stopped before its first lease: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	for i, err := range runWorkers(ctx, t, srv.URL, 1, newTestRepo(c), &testMeta{c: c}) {
		if err != nil {
			t.Fatalf("remote worker %d: %v", i, err)
		}
	}
	if err := <-localErr; err != nil {
		t.Fatalf("local worker: %v", err)
	}
	merged, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Funnel != ref.Funnel || !reflect.DeepEqual(merged.Apps, ref.Apps) {
		t.Fatal("merged report diverged from the one-partition run")
	}
	if prom, trace := rollupAndTrace(t, coord); prom != refProm || trace != refTrace {
		t.Fatalf("rollup or trace diverged from the one-partition run:\n%.800s", prom)
	}
	if local.Completed() == 0 {
		t.Fatal("the local worker completed no partition")
	}
}

// TestSpecFaultsReachWorkers puts the spec's faults on every worker's
// services: with every operation failing each worker stops at its
// listing, and with one in fifty failing under a retry budget of 7 the
// merged report is the sequential one and the rollup counts the faults.
func TestSpecFaultsReachWorkers(t *testing.T) {
	c := testCorpus(t)
	scan := func(faults string, retries int) (*shard.Coordinator, *pipeline.Result, []error) {
		spec := fleetSpec(4, 3)
		spec.Faults, spec.Retries = faults, retries
		coord, srv := startCoordinator(t, shard.CoordinatorConfig{Spec: spec})
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()
		errs := runWorkers(ctx, t, srv.URL, 2, newTestRepo(c), &testMeta{c: c})
		done, stop := context.WithCancel(ctx)
		stop()
		merged, _ := coord.Wait(done)
		return coord, merged, errs
	}

	if _, merged, errs := scan("seed=1,err=1", 3); merged != nil {
		t.Fatal("every listing failed, yet the plane merged")
	} else {
		for i, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "list: faults: injected failure") {
				t.Errorf("worker %d: %v, want the injected listing failure", i, err)
			}
		}
	}

	coord, merged, errs := scan("seed=7,err=0.02", 7)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if merged == nil {
		t.Fatal("faulted plane never merged")
	}
	if got, want := renderAllTables(t, merged), renderAllTables(t, sequentialRun(t, c)); got != want {
		t.Fatalf("faulted 4-shard report diverged from the sequential run:\n%s", got)
	}
	if n := coord.Fleet().Rollup().Family("faults_injected_total").Total(); n == 0 {
		t.Fatal("the rollup counts no injected fault")
	}
}
