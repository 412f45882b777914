// The scan plane of staticscan. Every scan is a coordinator: it serves
// the corpus and leases its -shards partitions to a worker in its own
// process, which hands results to the merge directly, and to -shard-spawn
// worker processes of this binary (staticscan -join URL), which reach
// everything over HTTP. A run whose workers have all failed before the
// merge fails with the first failure instead of waiting on leases nobody
// will take.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"repro/internal/androzoo"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/playstore"
	"repro/internal/report"
	"repro/internal/retry"
	"repro/internal/serving"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// workerName builds a unique lease identity for this process.
func workerName() string {
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// runWorker joins the coordinator at join and scans partitions until the
// run is done. Its scan runs under the coordinator's spec: seed, retry
// budget and faults included; retries bounds only its own control-plane
// calls. Its telemetry leaves it through the coordinator, so it writes
// and serves none itself.
func runWorker(join string, retries int, telem *telemetry.Flags) error {
	if telem.Enabled() {
		return fmt.Errorf("-join takes no -telemetry-addr, -metrics-out or -trace-out: a worker's telemetry reaches the coordinator's")
	}
	w, err := shard.NewWorker(shard.WorkerConfig{
		Coordinator: join,
		Name:        workerName(),
		Retry:       &retry.Policy{MaxAttempts: retries + 1},
		// The coordinator scrapes this worker live for /fleet/status.
		MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		return err
	}
	if err := w.Run(context.Background()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "worker %s: %d partitions completed\n", workerName(), w.Completed())
	return nil
}

// workerEnvGuard lets a test binary reuse itself as the worker executable:
// when the variable is set, TestMain dispatches straight into main().
const workerEnvGuard = "STATICSCAN_WORKER_PROCESS"

// spawnWorkers starts n worker processes of this same binary against the
// coordinator URL. Their stderr is inherited; a worker that exits nonzero
// is reported but not fatal while a peer lives — the lease TTL re-issues
// its partitions.
func spawnWorkers(n int, joinURL string) ([]*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cmds []*exec.Cmd
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-join", joinURL)
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(), workerEnvGuard+"=1")
		if err := cmd.Start(); err != nil {
			for _, c := range cmds {
				c.Process.Kill()
			}
			return nil, fmt.Errorf("spawn worker %d: %w", i, err)
		}
		cmds = append(cmds, cmd)
	}
	return cmds, nil
}

// superviseWorkers runs the in-process worker and reaps the spawned
// processes in the background, logging each that fails. The returned
// context ends once every one of them has exited, with the first failure
// as its cause.
func superviseWorkers(local *shard.Worker, cmds []*exec.Cmd) context.Context {
	ctx, cancel := context.WithCancelCause(context.Background())
	exits := make(chan error)
	go func() { exits <- local.Run(context.Background()) }()
	for _, cmd := range cmds {
		go func() {
			if err := cmd.Wait(); err != nil {
				exits <- fmt.Errorf("worker %d: %w", cmd.Process.Pid, err)
				return
			}
			exits <- nil
		}()
	}
	go func() {
		var first error
		for range len(cmds) + 1 {
			if err := <-exits; err != nil {
				fmt.Fprintln(os.Stderr, err)
				if first == nil {
					first = err
				}
			}
		}
		cancel(first)
	}()
	return ctx
}

// scan runs the static study: o.shards partitions of the served corpus
// leased to the worker in this process, to o.spawn spawned workers and to
// any that join, then the report, the stderr summaries and -lint-json and
// -urls-json from the merged result. The fleet's federated rollup and
// stitched trace become the run's -metrics-out and -trace-out, so every
// output carries the same bytes at every topology; -telemetry-addr serves
// the coordinator's own hub.
func scan(out *os.File, o options, telem *telemetry.Flags) error {
	if o.shards < 1 || o.spawn < 0 {
		return fmt.Errorf("need -shards >= 1 and -shard-spawn >= 0, got %d and %d", o.shards, o.spawn)
	}
	if _, err := faults.ParseSpec(o.faults); err != nil {
		return err
	}
	// The streamed corpus (bounded memory) as AndroZoo + Play Store
	// endpoints on hardened listeners.
	snap, err := corpus.NewSnapshot(corpus.Config{Seed: o.seed, Scale: o.scale})
	if err != nil {
		return err
	}
	az, err := serving.Listen("127.0.0.1:0", androzoo.NewServerFrom(snap).Handler())
	if err != nil {
		return err
	}
	defer az.Close()
	ps, err := serving.Listen("127.0.0.1:0", playstore.NewServerFrom(snap).Handler())
	if err != nil {
		return err
	}
	defer ps.Close()
	spec := shard.RunSpec{
		Shards:          o.shards,
		RepoURL:         "http://" + az.Addr,
		StoreURL:        "http://" + ps.Addr,
		MinDownloads:    corpus.MinDownloads,
		UpdatedAfter:    corpus.UpdateCutoff,
		Workers:         o.workers,
		Lint:            o.lint,
		LintRules:       o.lintRules,
		URLs:            o.urls,
		MaxFailureFrac:  o.maxFailureFrac,
		Retries:         o.retries,
		Faults:          o.faults,
		CacheDir:        o.cachedir,
		DownloadLatency: o.dlLatency,
		LeaseTTL:        o.ttl,
		Seed:            o.seed,
		Wallclock:       o.wallclock,
		CorpusEntries:   snap.Total(),
	}
	// The key every worker's own pipelineConfig must reproduce.
	if spec.ConfigKey, err = shard.ConfigKey(spec); err != nil {
		return err
	}
	coord, err := shard.NewCoordinator(shard.CoordinatorConfig{Spec: spec, Telemetry: telem.Hub(o.seed)})
	if err != nil {
		return err
	}
	if err := telem.Start(); err != nil {
		return err
	}
	fed := coord.Fleet()
	telem.Report(fed.Rollup, fed.WriteTraceJSONL)
	ep, err := serving.Listen(o.listen, coord.Handler())
	if err != nil {
		return err
	}
	defer ep.Close()
	joinURL := "http://" + ep.Addr
	fmt.Fprintf(os.Stderr, "coordinator on %s: %d shards over %d repository entries\n",
		joinURL, o.shards, snap.Total())

	// The wait ends at the merge or once every worker has exited and
	// nobody is left to take the leases.
	start := time.Now()
	local, err := shard.NewWorker(shard.WorkerConfig{Local: coord, Name: workerName(), MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	cmds, err := spawnWorkers(o.spawn, joinURL)
	if err != nil {
		return err
	}
	exited := superviseWorkers(local, cmds)
	// Workers exit once they see the run done; reap them before the
	// listener closes under their final snapshot flush.
	defer func() { <-exited.Done() }()
	res, err := coord.Wait(exited)
	if err != nil {
		telem.Report(fed.Flushed, fed.WriteTraceJSONL)
		return fmt.Errorf("every worker failed before the merge: %w", err)
	}
	wall := time.Since(start)
	fmt.Fprintf(os.Stderr, "merged %d shards in %v (merge itself %v)\n", o.shards, wall, coord.MergeLatency())
	fmt.Fprintf(os.Stderr, "throughput: %d APKs in %v = %.1f APKs/s\n",
		res.Funnel.Filtered, wall, float64(res.Funnel.Filtered)/wall.Seconds())
	sr := &core.StaticResult{
		Funnel: res.Funnel, Apps: res.Apps, Aggregates: pipeline.Aggregate(res),
		Quarantined: res.Quarantined, Stats: res.Stats,
	}
	printRunSummary(os.Stderr, o, sr)
	printStaticReport(out, o, sr)
	return writeJSONReports(out, o, sr)
}

// printRunSummary writes the merged run's cache line, quarantine summary
// and -stats to w.
func printRunSummary(w io.Writer, o options, res *core.StaticResult) {
	if o.cachedir != "" {
		fmt.Fprintf(w, "analysis cache: %d hits, %d misses (%.0f%% hit rate)\n",
			res.Stats.CacheHits, res.Stats.CacheMisses, 100*res.Stats.CacheHitRate())
	}
	if n := len(res.Quarantined); n > 0 {
		fmt.Fprintf(w, "degraded: %d of %d packages quarantined after retries (budget %.1f%%):\n",
			n, res.Funnel.Snapshot, 100*o.maxFailureFrac)
		for i, q := range res.Quarantined {
			if i == 10 {
				fmt.Fprintf(w, "  ... and %d more\n", n-i)
				break
			}
			fmt.Fprintf(w, "  %s (%s): %s\n", q.Package, q.Stage, q.Err)
		}
	}
	if o.stats {
		fmt.Fprintln(w, res.Stats.String())
	}
}

// printStaticReport renders the standard static-study tables for a result.
func printStaticReport(out io.Writer, o options, res *core.StaticResult) {
	fmt.Fprint(out, report.Table2(res.Funnel, o.scale))
	fmt.Fprint(out, report.Table3(res.Aggregates))
	fmt.Fprint(out, report.TopSDKTable(res.Aggregates, false, o.scale))
	fmt.Fprint(out, report.TopSDKTable(res.Aggregates, true, o.scale))
	fmt.Fprint(out, report.Table7(res.Aggregates, o.scale))
	fmt.Fprint(out, report.Figure3(res.Aggregates))
	fmt.Fprint(out, report.Figure4(res.Aggregates))
	if o.lint {
		fmt.Fprint(out, report.LintTable(res.Aggregates))
	}
	if o.urls {
		fmt.Fprint(out, report.URLTable(res.Apps))
	}
}
