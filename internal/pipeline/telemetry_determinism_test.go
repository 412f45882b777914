// Telemetry determinism: with seed-derived timings, the pipeline's metrics
// snapshot and span trace are pure functions of (corpus, config, seeds) —
// independent of worker count, goroutine scheduling, and even of injected
// faults being retried away. These are the invariants the CI smoke job and
// the -metrics-out/-trace-out flags rely on.
package pipeline_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/retry"
	"repro/internal/telemetry"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

// telemetryRun executes one pipeline run over the chaos corpus with a
// fresh hub and returns the canonical metrics JSON and trace JSONL it
// emitted. cfg supplies the worker count and stages; the selection filter
// and hub are set here. With faulted, the backends inject 10% transient
// errors, absorbed by retries.
func telemetryRun(t *testing.T, c *corpus.Corpus, cfg pipeline.Config, faulted bool) (hub *telemetry.Hub, metrics, trace string) {
	t.Helper()
	hub = telemetry.New(telemetry.Options{Timing: telemetry.SeededTiming{Seed: 11}, Tracing: true})
	var repo pipeline.Repository = newChaosRepo(c)
	var meta pipeline.MetadataSource = &chaosMeta{c: c}
	cfg.MinDownloads, cfg.UpdatedAfter, cfg.Telemetry = corpus.MinDownloads, corpus.UpdateCutoff, hub
	if faulted {
		fcfg := faults.Config{Seed: 7, ErrorRate: 0.1, Telemetry: hub}
		repo = faults.NewRepository(repo, fcfg)
		meta = faults.NewMetadataSource(meta, fcfg)
		cfg.Retry = chaosPolicy(&retry.Metrics{})
	}
	p := pipeline.New(repo, meta, cfg)
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatalf("run (workers=%d faulted=%v): %v", cfg.Workers, faulted, err)
	}
	var mb, tb bytes.Buffer
	if err := hub.Registry().Snapshot().WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	if err := hub.Tracer().WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	return hub, mb.String(), tb.String()
}

// TestTelemetrySnapshotScheduleIndependent runs the same corpus
// sequentially and with 4 workers, with the analysis alone and with the
// lint and URL stages on: the metrics snapshot and the trace must be
// byte-identical — worker count and goroutine interleaving leave no
// residue in the telemetry.
func TestTelemetrySnapshotScheduleIndependent(t *testing.T) {
	c := chaosCorpus(t)
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  pipeline.Config
	}{
		{"analysis", pipeline.Config{}},
		{"lint+urls", pipeline.Config{Lint: lint, URLs: urlextract.New(urlextract.Config{})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq, par := tc.cfg, tc.cfg
			seq.Workers, par.Workers = 1, 4
			_, seqMetrics, seqTrace := telemetryRun(t, c, seq, false)
			_, parMetrics, parTrace := telemetryRun(t, c, par, false)
			if seqMetrics != parMetrics {
				t.Errorf("metrics diverge between workers=1 and workers=4:\n--- seq ---\n%s\n--- par ---\n%s", seqMetrics, parMetrics)
			}
			if seqTrace != parTrace {
				t.Errorf("traces diverge between workers=1 and workers=4")
			}
			if seqMetrics == "" || seqTrace == "" {
				t.Fatal("telemetry outputs empty — instrumentation did not fire")
			}
		})
	}
}

// TestTelemetryFaultedRunDeterministic repeats a faulted run (PR 3 chaos
// harness: seeded transient errors on both backends, retries absorbing
// them) and asserts byte-identical telemetry, proving fault draws, retry
// counts and injected-fault counters are all schedule-free functions of
// their seeds.
func TestTelemetryFaultedRunDeterministic(t *testing.T) {
	c := chaosCorpus(t)
	hub, m1, t1 := telemetryRun(t, c, pipeline.Config{Workers: 4}, true)
	_, m2, t2 := telemetryRun(t, c, pipeline.Config{Workers: 4}, true)
	if m1 != m2 {
		t.Errorf("faulted metrics diverge across identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", m1, m2)
	}
	if t1 != t2 {
		t.Errorf("faulted traces diverge across identical runs")
	}

	// The faults must actually have fired and been retried away.
	snap := hub.Registry().Snapshot()
	if n := snap.Family("faults_injected_total").Total(); n == 0 {
		t.Error("faults_injected_total = 0 — injection never fired")
	}
	if n := snap.Family("retry_retries_total").Total(); n == 0 {
		t.Error("retry_retries_total = 0 — retries never mirrored into the registry")
	}
	if got, want := snap.Family("retry_attempts_total").Total(),
		snap.Family("retry_retries_total").Total(); got <= want {
		t.Errorf("retry_attempts_total = %d, want > retries (%d)", got, want)
	}
}
