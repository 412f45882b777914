//go:build unix

package shard_test

import (
	"context"
	"encoding/json"
	"syscall"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// partitionRepo lists one hash partition of a repository, as a worker's
// leased partition sees it.
type partitionRepo struct {
	pipeline.Repository
	part, shards int
}

func (r partitionRepo) List(ctx context.Context) ([]string, error) {
	pkgs, err := r.Repository.List(ctx)
	var kept []string
	for _, pkg := range pkgs {
		if shard.PartitionOf(pkg, r.shards) == r.part {
			kept = append(kept, pkg)
		}
	}
	return kept, err
}

// federatedFields is the telemetry a worker attaches to POST /v1/result,
// under the same JSON names.
type federatedFields struct {
	Metrics json.RawMessage      `json:"metrics,omitempty"`
	Spans   []telemetry.SpanLine `json:"spans,omitempty"`
}

// BenchmarkFederation measures what federating one run's telemetry costs,
// next to the CPU of the scan it reports on. The scan (scale 500, seed 1,
// default stages, four partitions each on its own worker hub) runs once in
// setup. Each op then does every partition's federation work on both sides
// of the wire: the worker snapshots its registry, subtracts the lease-time
// snapshot and encodes the delta with the partition's spans; the
// coordinator decodes them and folds them into a fresh federator with
// AcceptResult. Reported: scan-cpu-ms (the four partitions' scan CPU),
// fed-cpu-ms/op (the federation work's CPU) and fed-%-of-scan.
func BenchmarkFederation(b *testing.B) {
	const shards, seed = 4, 1
	c, err := corpus.Generate(corpus.Config{Seed: seed, Scale: 500})
	if err != nil {
		b.Fatal(err)
	}
	type partition struct {
		hub    *telemetry.Hub
		before *telemetry.Snapshot
		mark   map[string]int
	}
	parts := make([]partition, shards)
	var scanCPU time.Duration
	for p := range parts {
		hub := telemetry.New(telemetry.Options{Timing: telemetry.SeededTiming{Seed: seed}, Tracing: true})
		parts[p] = partition{hub: hub, before: hub.Registry().Snapshot(), mark: hub.Tracer().Mark()}
		repo := partitionRepo{Repository: newTestRepo(c), part: p, shards: shards}
		start := cpuTime(b)
		_, err := pipeline.New(repo, &testMeta{c: c}, pipeline.Config{
			MinDownloads: corpus.MinDownloads,
			UpdatedAfter: corpus.UpdateCutoff,
			Telemetry:    hub,
		}).Run(context.Background())
		scanCPU += cpuTime(b) - start
		if err != nil {
			b.Fatal(err)
		}
	}

	traceID := fleet.TraceID(seed)
	b.ReportAllocs()
	b.ResetTimer()
	start := cpuTime(b)
	for range b.N {
		fed := fleet.New(fleet.Config{TraceID: traceID})
		for p, part := range parts {
			delta, err := json.Marshal(part.hub.Registry().Snapshot().Sub(part.before))
			if err != nil {
				b.Fatal(err)
			}
			body, err := json.Marshal(federatedFields{Metrics: delta, Spans: part.hub.Tracer().SpansSince(part.mark)})
			if err != nil {
				b.Fatal(err)
			}
			var got federatedFields
			if err := json.Unmarshal(body, &got); err != nil {
				b.Fatal(err)
			}
			if err := fed.AcceptResult(p, "worker", got.Metrics, got.Spans, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	fedCPU := (cpuTime(b) - start) / time.Duration(b.N)
	b.StopTimer()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	b.ReportMetric(ms(scanCPU), "scan-cpu-ms")
	b.ReportMetric(ms(fedCPU), "fed-cpu-ms/op")
	b.ReportMetric(100*float64(fedCPU)/float64(scanCPU), "fed-%-of-scan")
}
