// Sharded scan plane modes of staticscan:
//
//	staticscan -coordinator ADDR -shards N   partition the snapshot, lease
//	                                         work to joining workers, merge
//	staticscan -worker -join URL             scan leased partitions
//
// The coordinator serves the corpus (streamed, bounded memory) as AndroZoo
// + Play Store endpoints over hardened listeners, so workers are plain
// separate OS processes that reach everything over HTTP. -shard-spawn N
// starts N of them itself from the same binary (-1 = one per shard);
// with -shard-spawn 0 the coordinator waits for externally started
// workers to -join. A run whose spawned workers have all exited before the
// merge fails with the first worker's error instead of waiting on leases
// nobody will take.
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
	"repro/internal/pipeline"
	"repro/internal/playstore"
	"repro/internal/report"
	"repro/internal/retry"
	"repro/internal/serving"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

// shardOptions carries the scan-plane flags.
type shardOptions struct {
	coordinator string        // -coordinator listen address
	shards      int           // -shards partition count
	spawn       int           // -shard-spawn worker processes (-1 = one per shard)
	worker      bool          // -worker mode
	join        string        // -join coordinator URL
	ttl         time.Duration // -shard-ttl lease TTL
	dlLatency   time.Duration // -dl-latency modeled APK transfer time
}

// workerName builds a unique lease identity for this process.
func workerName() string {
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// runWorker joins a coordinator and scans partitions until the run is done.
func runWorker(o options, so shardOptions) error {
	if so.join == "" {
		return fmt.Errorf("-worker needs -join URL")
	}
	var pol *retry.Policy
	if o.retries > 0 {
		pol = &retry.Policy{MaxAttempts: o.retries + 1, Metrics: &retry.Metrics{}}
	}
	w, err := shard.NewWorker(shard.WorkerConfig{
		Coordinator: so.join,
		Name:        workerName(),
		Retry:       pol,
		Telemetry:   o.telemetry,
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

// referenceConfigKey fingerprints the analysis configuration the
// coordinator expects every worker to run.
func referenceConfigKey(o options) (string, error) {
	cfg := pipeline.Config{}
	if o.lint || o.lintRules != nil {
		lint, err := webviewlint.New(webviewlint.Config{Rules: o.lintRules})
		if err != nil {
			return "", err
		}
		cfg.Lint = lint
	}
	if o.urls {
		cfg.URLs = urlextract.New(urlextract.Config{})
	}
	return pipeline.New(nil, nil, cfg).ConfigKey(), nil
}

// corpusPlane serves the streamed corpus as AndroZoo + Play Store
// endpoints on hardened listeners.
type corpusPlane struct {
	snap   *corpus.Snapshot
	az, ps *serving.Endpoint
}

func startCorpusPlane(o options) (*corpusPlane, error) {
	snap, err := corpus.NewSnapshot(corpus.Config{Seed: o.seed, Scale: o.scale})
	if err != nil {
		return nil, err
	}
	az, err := serving.Listen("127.0.0.1:0", androzoo.NewServerFrom(snap).Handler())
	if err != nil {
		return nil, err
	}
	ps, err := serving.Listen("127.0.0.1:0", playstore.NewServerFrom(snap).Handler())
	if err != nil {
		az.Close()
		return nil, err
	}
	return &corpusPlane{snap: snap, az: az, ps: ps}, nil
}

func (p *corpusPlane) Close() {
	p.az.Close()
	p.ps.Close()
}

// buildSpec assembles the RunSpec the coordinator hands to workers.
func buildSpec(o options, so shardOptions, plane *corpusPlane) (shard.RunSpec, error) {
	key, err := referenceConfigKey(o)
	if err != nil {
		return shard.RunSpec{}, err
	}
	return shard.RunSpec{
		Shards:          so.shards,
		RepoURL:         "http://" + plane.az.Addr,
		StoreURL:        "http://" + plane.ps.Addr,
		MinDownloads:    corpus.MinDownloads,
		UpdatedAfter:    corpus.UpdateCutoff,
		Workers:         o.workers,
		Lint:            o.lint,
		LintRules:       o.lintRules,
		URLs:            o.urls,
		MaxFailureFrac:  o.maxFailureFrac,
		CacheDir:        o.cachedir,
		DownloadLatency: so.dlLatency,
		LeaseTTL:        so.ttl,
		ConfigKey:       key,
		Seed:            o.seed,
		Wallclock:       o.wallclock,
		CorpusEntries:   plane.snap.Total(),
	}, nil
}

// workerEnvGuard lets a test binary reuse itself as the worker executable:
// when the variable is set, TestMain dispatches straight into main().
const workerEnvGuard = "STATICSCAN_WORKER_PROCESS"

// spawnWorkers starts n worker processes of this same binary against the
// coordinator URL. Their stderr is inherited; a worker that exits nonzero
// is reported but not fatal while a peer lives — the lease TTL re-issues
// its partitions.
func spawnWorkers(n int, joinURL string, o options) ([]*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cmds []*exec.Cmd
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-worker", "-join", joinURL, "-retries", fmt.Sprint(o.retries))
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

// superviseWorkers reaps the spawned worker processes in the background,
// logging each that exits nonzero. The returned context ends once every
// one of them has exited, with the first failure as its cause.
func superviseWorkers(cmds []*exec.Cmd) context.Context {
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		var first error
		for _, cmd := range cmds {
			if err := cmd.Wait(); err != nil {
				err = fmt.Errorf("worker %d: %w", cmd.Process.Pid, err)
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

// staticResult wraps a merged pipeline result into the report-ready shape
// the sequential path produces (core computes aggregates the same way).
func staticResult(res *pipeline.Result) *core.StaticResult {
	return &core.StaticResult{
		Funnel:      res.Funnel,
		Apps:        res.Apps,
		Aggregates:  pipeline.Aggregate(res),
		Quarantined: res.Quarantined,
		Stats:       res.Stats,
	}
}

// runCoordinator is the -coordinator entry point: lease so.shards
// partitions of the served corpus to spawned or joining workers, wait for
// the merge, then print the standard report and write -lint-json and
// -urls-json. The fleet's federated rollup and stitched trace become the
// run's -metrics-out and -trace-out, so all of them carry the sequential
// run's bytes.
func runCoordinator(out *os.File, o options, so shardOptions, telem *telemetry.Flags) error {
	if so.shards < 1 {
		return fmt.Errorf("-coordinator needs -shards >= 1")
	}
	plane, err := startCorpusPlane(o)
	if err != nil {
		return err
	}
	defer plane.Close()
	spec, err := buildSpec(o, so, plane)
	if err != nil {
		return err
	}
	coord, err := shard.NewCoordinator(shard.CoordinatorConfig{Spec: spec, Telemetry: o.telemetry})
	if err != nil {
		return err
	}
	telem.Report(coord.Fleet().Rollup, coord.Fleet().WriteTraceJSONL)
	ep, err := serving.Listen(so.coordinator, coord.Handler())
	if err != nil {
		return err
	}
	defer ep.Close()
	joinURL := "http://" + ep.Addr
	fmt.Fprintf(os.Stderr, "coordinator on %s: %d shards over %d repository entries\n",
		joinURL, so.shards, plane.snap.Total())

	// The wait ends at the merge or, with spawned workers, once every one
	// of them has exited and nobody is left to take the leases. With
	// external workers only (-shard-spawn 0) it waits for the merge.
	start := time.Now()
	exited := context.Background()
	if n := so.spawn; n != 0 {
		if n < 0 {
			n = so.shards
		}
		cmds, err := spawnWorkers(n, joinURL, o)
		if err != nil {
			return err
		}
		exited = superviseWorkers(cmds)
		// Workers exit once they see the run done; reap them before the
		// listener closes under their final snapshot flush.
		defer func() { <-exited.Done() }()
	}
	res, err := coord.Wait(exited)
	if err != nil {
		return fmt.Errorf("every spawned worker exited before the merge: %w", err)
	}
	wall := time.Since(start)
	fmt.Fprintf(os.Stderr, "merged %d shards in %v (merge itself %v)\n", so.shards, wall, coord.MergeLatency())
	fmt.Fprintf(os.Stderr, "throughput: %d APKs in %v = %.1f APKs/s\n",
		res.Funnel.Filtered, wall, float64(res.Funnel.Filtered)/wall.Seconds())
	sr := staticResult(res)
	printStaticReport(out, o, sr)
	return writeJSONReports(out, o, sr)
}

// printStaticReport renders the standard static-study tables for a
// result — shared by the sequential and the merged sharded paths.
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
