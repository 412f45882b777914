// Chaos test for the scan plane: a worker killed mid-lease must not cost
// the run anything but the lease TTL and some downloads — the peer that
// takes over the re-issued partition finds every analysis the dead worker
// stored in the shared cache, analyses none of them again, and the final
// merged report is byte-identical to an uninterrupted run.
package shard_test

import (
	"context"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/shard"
)

func TestChaosKilledWorkerPartitionResumes(t *testing.T) {
	c := testCorpus(t)
	const shards = 4

	// The kill must land mid-partition-0: count partition 0's downloads
	// (every eligible app of the partition) and stop a few short.
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

	ref := plainRun(t, c)

	clock := newFakeClock()
	ttl := time.Hour // renewal tickers (TTL/3) never fire inside the test
	cacheDir := t.TempDir()
	coord, srv := startCoordinator(t, shard.CoordinatorConfig{
		Spec: shard.RunSpec{
			Shards:       shards,
			MinDownloads: corpus.MinDownloads,
			UpdatedAfter: corpus.UpdateCutoff,
			CacheDir:     cacheDir,
			LeaseTTL:     ttl,
		},
		Now: clock.Now,
	})

	// Worker A: its context is cut after killAfter downloads — an OS kill
	// as the pipeline sees one, mid-lease with part of its partition in
	// the cache.
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
	if wA.Completed() != 0 {
		t.Fatalf("killed worker completed %d partitions, want 0", wA.Completed())
	}
	repo.setOnDownload(nil)

	// The dead worker's analyses are in the shared cache.
	stored := blobCount(t, cacheDir)
	if stored == 0 || stored >= part0 {
		t.Fatalf("kill landed outside mid-partition: %d of %d stored", stored, part0)
	}

	// Partition 0 is still leased to the corpse. Let the lease expire.
	clock.Advance(ttl + time.Second)

	// Worker B finishes the run: partition 0 over the dead worker's cache
	// entries, then the untouched partitions.
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
	if wB.Completed() != shards {
		t.Fatalf("surviving worker completed %d partitions, want %d", wB.Completed(), shards)
	}

	merged, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	assertSurvivorResumedFromCache(t, coord, merged, ref, stored)
}

// plainRun is the uninterrupted reference of the chaos tests: the plain
// sequential pipeline, lint and URL stages off.
func plainRun(t *testing.T, c *corpus.Corpus) *pipeline.Result {
	t.Helper()
	ref, err := pipeline.New(newTestRepo(c), &testMeta{c: c}, pipeline.Config{
		MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
	}).Run(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return ref
}

// blobCount counts the analyses stored in a cache directory.
func blobCount(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".blob") {
			n++
		}
	}
	return n
}

// assertSurvivorResumedFromCache checks a run whose first worker died
// after storing stored analyses in the shared cache and whose survivor
// completed every partition: the survivor's cache hits are exactly those
// analyses, it analysed only its misses, the rollup counts each filtered
// package into the download stage once, since the dead worker's partial
// delta never federates, and the merged report is the uninterrupted ref's.
func assertSurvivorResumedFromCache(t *testing.T, coord *shard.Coordinator, merged, ref *pipeline.Result, stored int) {
	t.Helper()
	st := merged.Stats
	if st.CacheHits != stored {
		t.Errorf("survivor cache hits = %d, want the %d analyses the dead worker stored", st.CacheHits, stored)
	}
	if st.Analyze.In != st.CacheMisses {
		t.Errorf("survivor analysed %d packages, want its %d misses", st.Analyze.In, st.CacheMisses)
	}
	dlIn := sampleOf(coord.Fleet().Rollup(), "pipeline_stage_items_total", "stage", "download", "dir", "in")
	if int(dlIn) != merged.Funnel.Filtered {
		t.Errorf("rollup download in = %d, want filtered %d", dlIn, merged.Funnel.Filtered)
	}
	if merged.Funnel != ref.Funnel {
		t.Fatalf("funnel diverged:\n  interrupted   %+v\n  uninterrupted %+v", merged.Funnel, ref.Funnel)
	}
	if !reflect.DeepEqual(merged.Apps, ref.Apps) {
		t.Fatal("per-app results diverged from the uninterrupted run")
	}
	if !reflect.DeepEqual(merged.Quarantined, ref.Quarantined) {
		t.Fatalf("quarantines diverged: %+v vs %+v", merged.Quarantined, ref.Quarantined)
	}
	if got, want := renderAllTables(t, merged), renderAllTables(t, ref); got != want {
		t.Fatalf("rendered tables diverged:\n--- interrupted ---\n%s\n--- uninterrupted ---\n%s", got, want)
	}
}
