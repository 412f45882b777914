// Command staticscan runs the paper's full static-analysis pipeline
// (Figure 1) over a synthetic corpus served by in-process AndroZoo and
// Play Store services, then prints the static-study tables and figures:
// Table 2 (dataset funnel), Table 3 (SDK matrix), Tables 4/5 (popular
// SDKs), Table 7 (API-method usage), Figure 3 (use cases per app
// category) and Figure 4 (method heatmap).
//
// Usage:
//
//	staticscan [-scale N] [-seed N] [-workers N] [-cachedir DIR] [-stats]
//	           [-lint] [-lint-rules LIST] [-lint-json FILE]
//	           [-urls] [-urls-json FILE]
//	           [-retries N] [-max-failure-frac F] [-faults SPEC]
//	           [-journal FILE] [-resume]
//	           [-cpuprofile FILE] [-memprofile FILE]
//	           [-telemetry-addr ADDR] [-metrics-out FILE] [-trace-out FILE]
//	           [-telemetry-wallclock]
//	staticscan -coordinator ADDR -shards N [-shard-spawn N] [-shard-ttl D]
//	           [-journal-dir DIR] [-dl-latency D]
//	staticscan -worker -join URL
//	staticscan -fleet-status URL
//
// Scale divides the paper's 6.5M-app population; scale 1 reproduces
// full-paper counts (slow and memory-hungry), the default 200 finishes in
// seconds with the same shapes.
//
// With -cachedir, per-APK analyses are cached on disk keyed by APK content
// digest: a re-run over an unchanged corpus downloads each APK but skips
// its call-graph, lint and URL work entirely (the stats line reports the
// hit rate). Edit the SDK catalog or the corpus and the affected entries
// miss and recompute. -stats prints the per-stage pipeline summary to
// stderr.
//
// -lint adds the WebView misconfiguration lint stage and prints the
// per-rule prevalence table. -lint-rules runs only the named
// comma-separated rule IDs (implies -lint); -lint-json writes the findings
// machine-readably to FILE ("-" for stdout, implies -lint). The lint
// configuration is part of the cache key, so toggling rules invalidates
// only lint-bearing cache entries.
//
// -urls adds the interprocedural URL-extraction stage and prints the
// static-endpoint summary table; -urls-json writes the per-app endpoints
// machine-readably to FILE ("-" for stdout, implies -urls). The extractor
// fingerprint joins the cache key, so toggling the stage or changing the
// engine re-extracts instead of serving stale entries; the JSON document
// is byte-identical across -workers settings.
//
// Fault tolerance: -retries N retries each network operation up to N
// extra times with exponential backoff; -max-failure-frac F lets up to
// that fraction of the snapshot be quarantined (after retries) without
// aborting the run, with casualties summarised on stderr. -journal FILE
// checkpoints completed packages as JSONL; re-running with -resume skips
// them, so an interrupted corpus run picks up where it died. -faults
// injects deterministic failures for testing the above, e.g.
// "seed=7,err=0.1,lat=1ms,latrate=0.05,trunc=0.02,corrupt=0.02":
// err/latrate perturb the repository and metadata interfaces, trunc and
// corrupt damage HTTP payloads beneath the client's integrity checks,
// and err/corrupt also harass the persistent cache tier.
//
// Observability: -telemetry-addr serves /metrics (Prometheus text),
// /metrics.json, /healthz, /trace and /debug/pprof live during the run;
// -metrics-out and -trace-out write the final snapshot and the per-APK
// span traces on exit ("-" for stdout). Durations are seed-derived by
// default so same-seed runs emit byte-identical telemetry; pass
// -telemetry-wallclock for real latencies.
//
// Fleet observability (shard modes): the coordinator federates every
// worker's metrics registry and per-APK trace spans behind /fleet/metrics,
// /fleet/metrics.json, /fleet/status and /fleet/trace; `staticscan
// -fleet-status URL` renders the live status from another terminal. A
// coordinator's -metrics-out writes the federated rollup and its
// -trace-out the stitched fleet trace, byte-identical to a sequential
// run's; its own lease families stay on the live /metrics and its control
// spans on /fleet/trace?view=control.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"repro/internal/androzoo"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/playstore"
	"repro/internal/profiling"
	"repro/internal/resultcache"
	"repro/internal/retry"
	"repro/internal/telemetry"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

func main() {
	scale := flag.Int("scale", 200, "population divisor (1 = paper scale)")
	seed := flag.Int64("seed", 1, "corpus generation seed")
	workers := flag.Int("workers", 0, "analysis workers (0 = GOMAXPROCS)")
	cachedir := flag.String("cachedir", "", "persistent analysis-cache directory (empty = no cache)")
	stats := flag.Bool("stats", false, "print per-stage pipeline statistics to stderr")
	lint := flag.Bool("lint", false, "run the WebView misconfiguration lint stage")
	lintRules := flag.String("lint-rules", "", "comma-separated lint rule IDs (implies -lint; empty = all rules)")
	lintJSON := flag.String("lint-json", "", "write lint findings as JSON to this file, \"-\" for stdout (implies -lint)")
	urls := flag.Bool("urls", false, "run the interprocedural URL-extraction stage")
	urlsJSON := flag.String("urls-json", "", "write extracted endpoints as JSON to this file, \"-\" for stdout (implies -urls)")
	retries := flag.Int("retries", 3, "extra attempts per failed network operation (0 = no retry)")
	maxFailureFrac := flag.Float64("max-failure-frac", 0, "fraction of packages that may fail without aborting the run")
	faultsSpec := flag.String("faults", "", "inject deterministic faults, e.g. \"seed=7,err=0.1,lat=1ms\" (testing)")
	journalPath := flag.String("journal", "", "checkpoint completed packages to this JSONL file")
	resume := flag.Bool("resume", false, "resume from an existing -journal file instead of refusing to overwrite it")
	coordinator := flag.String("coordinator", "", "run as scan-plane coordinator on this listen address (\":0\" for ephemeral)")
	shards := flag.Int("shards", 0, "partition count for -coordinator mode")
	shardSpawn := flag.Int("shard-spawn", -1, "worker processes the coordinator spawns (-1 = one per shard, 0 = external workers)")
	workerMode := flag.Bool("worker", false, "run as scan-plane worker (requires -join)")
	join := flag.String("join", "", "coordinator URL to join in -worker mode")
	shardTTL := flag.Duration("shard-ttl", 0, "work-lease TTL (0 = coordinator default)")
	dlLatency := flag.Duration("dl-latency", 0, "modeled per-APK repository transfer time in shard modes")
	journalDir := flag.String("journal-dir", "", "per-partition journal directory in shard modes")
	fleetStatus := flag.String("fleet-status", "", "render a running coordinator's /fleet/status and exit (coordinator URL)")
	var prof profiling.Flags
	prof.Register(nil)
	var telem telemetry.Flags
	telem.Register(nil)
	flag.Parse()
	if *workerMode && *join != "" {
		// One shard's local trace is partial and misleading: the debug
		// server's /trace points at the coordinator's stitched export.
		telem.FleetTraceURL = strings.TrimRight(*join, "/") + "/fleet/trace"
	}
	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			log.Fatal(err)
		}
	}()
	hub := telem.Hub(*seed)
	if err := telem.Start(); err != nil {
		log.Fatal(err)
	}

	opts := options{
		scale: *scale, seed: *seed, workers: *workers,
		cachedir: *cachedir, stats: *stats,
		lint:     *lint || *lintRules != "" || *lintJSON != "",
		lintJSON: *lintJSON,
		urls:     *urls || *urlsJSON != "",
		urlsJSON: *urlsJSON,
		retries:  *retries, maxFailureFrac: *maxFailureFrac,
		faults: *faultsSpec, journal: *journalPath, resume: *resume,
		telemetry: hub, wallclock: telem.Wallclock,
	}
	if *lintRules != "" {
		opts.lintRules = strings.Split(*lintRules, ",")
	}
	sopts := shardOptions{
		coordinator: *coordinator, shards: *shards, spawn: *shardSpawn,
		worker: *workerMode, join: *join,
		ttl: *shardTTL, dlLatency: *dlLatency, journalDir: *journalDir,
	}
	var err error
	switch {
	case *fleetStatus != "":
		err = runFleetStatus(os.Stdout, *fleetStatus)
	case sopts.worker:
		err = runWorker(opts, sopts)
	case sopts.coordinator != "":
		err = runCoordinator(os.Stdout, opts, sopts, &telem)
	default:
		err = run(os.Stdout, opts)
	}
	if terr := telem.Finish(); err == nil {
		err = terr
	}
	if err != nil {
		log.Fatal(err)
	}
}

type options struct {
	scale          int
	seed           int64
	workers        int
	cachedir       string
	stats          bool
	lint           bool
	lintRules      []string
	lintJSON       string
	urls           bool
	urlsJSON       string
	retries        int
	maxFailureFrac float64
	faults         string
	journal        string
	resume         bool
	telemetry      *telemetry.Hub
	wallclock      bool
}

// lintReport is the machine-readable -lint-json document.
type lintReport struct {
	Scale int               `json:"scale"`
	Seed  int64             `json:"seed"`
	Rules []lintRuleSummary `json:"rules"`
	Apps  []lintAppFindings `json:"apps"`
}

type lintRuleSummary struct {
	ID       string `json:"id"`
	Severity string `json:"severity"`
	Findings int    `json:"findings"`
	Apps     int    `json:"apps"`
	ViaSDK   int    `json:"viaSdk"`
}

type lintAppFindings struct {
	Package  string                `json:"package"`
	Findings []webviewlint.Finding `json:"findings"`
}

// urlReport is the machine-readable -urls-json document.
type urlReport struct {
	Scale     int               `json:"scale"`
	Seed      int64             `json:"seed"`
	Apps      int               `json:"apps"` // apps with at least one endpoint
	Endpoints int               `json:"endpoints"`
	Kinds     map[string]int    `json:"kinds"`
	AppURLs   []urlAppEndpoints `json:"appEndpoints"`
}

type urlAppEndpoints struct {
	Package   string                `json:"package"`
	Endpoints []urlextract.Endpoint `json:"endpoints"`
}

func run(out *os.File, o options) error {
	fmt.Fprintf(os.Stderr, "generating corpus (seed=%d scale=1/%d)...\n", o.seed, o.scale)
	c, err := corpus.Generate(corpus.Config{Seed: o.seed, Scale: o.scale})
	if err != nil {
		return err
	}

	azSrv := httptest.NewServer(androzoo.NewServer(c).Handler())
	defer azSrv.Close()
	psSrv := httptest.NewServer(playstore.NewServer(c).Handler())
	defer psSrv.Close()

	fcfg, err := faults.ParseSpec(o.faults)
	if err != nil {
		return err
	}
	injecting := o.faults != ""

	cfg := core.StaticConfig{
		Workers: o.workers, Lint: o.lint, LintRules: o.lintRules, URLs: o.urls,
		MaxFailureFrac: o.maxFailureFrac, Telemetry: o.telemetry,
	}
	if o.retries > 0 {
		cfg.Retry = &retry.Policy{MaxAttempts: o.retries + 1, Metrics: &retry.Metrics{}}
	}
	if o.cachedir != "" {
		store, err := resultcache.NewDirStore(o.cachedir)
		if err != nil {
			return fmt.Errorf("open cache dir: %w", err)
		}
		var blobs resultcache.BlobStore = store
		if injecting {
			// The cache tier sees load errors and blob corruption; the
			// cache's purge-on-corrupt path turns both into recomputes.
			blobs = faults.NewStore(store, faults.Config{
				Seed: fcfg.Seed, ErrorRate: fcfg.ErrorRate, CorruptRate: fcfg.CorruptRate,
				Telemetry: o.telemetry,
			})
		}
		cfg.Cache = resultcache.NewPersistent[pipeline.Analysis](0, blobs, nil)
	}
	if o.journal != "" {
		if !o.resume {
			if _, err := os.Stat(o.journal); err == nil {
				return fmt.Errorf("journal %s exists; pass -resume to continue it or remove it first", o.journal)
			}
		}
		j, err := pipeline.OpenJournal(o.journal)
		if err != nil {
			return err
		}
		defer j.Close()
		if n := j.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d packages already journaled\n", n)
		}
		cfg.Journal = j
	}

	// Payload damage (truncation, corruption) rides beneath the APK
	// client's Content-Length/digest verification, which turns it into a
	// retryable error; interface-level errors and latency wrap the
	// services. The pipeline's cfg.Retry is the one retry layer for both:
	// the clients carry no policy of their own, so -retries N allows N+1
	// attempts per operation, not (N+1)².
	//
	// Both clients keep an idle connection per pipeline worker and host:
	// with net/http's default of 2, workers beyond the second dial anew.
	svc := &http.Transport{MaxIdleConnsPerHost: pipeline.PoolSize(o.workers)}
	defer svc.CloseIdleConnections()
	azHC := &http.Client{Transport: svc}
	if injecting && (fcfg.TruncateRate > 0 || fcfg.CorruptRate > 0) {
		azHC = &http.Client{Transport: faults.NewTransport(svc, faults.Config{
			Seed: fcfg.Seed, TruncateRate: fcfg.TruncateRate, CorruptRate: fcfg.CorruptRate,
			Telemetry: o.telemetry,
		})}
	}
	var repo pipeline.Repository = androzoo.NewClient(azSrv.URL, azHC)
	var meta pipeline.MetadataSource = playstore.NewClient(psSrv.URL, &http.Client{Transport: svc})
	if injecting && (fcfg.ErrorRate > 0 || fcfg.LatencyRate > 0) {
		svcCfg := faults.Config{
			Seed: fcfg.Seed, ErrorRate: fcfg.ErrorRate,
			LatencyRate: fcfg.LatencyRate, Latency: fcfg.Latency,
			Telemetry: o.telemetry,
		}
		repo = faults.NewRepository(repo, svcCfg)
		meta = faults.NewMetadataSource(meta, svcCfg)
	}

	study, err := core.NewStaticStudy(repo, meta, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "running pipeline over %d repository entries...\n", c.Counts.Total)
	res, err := study.Run(context.Background())
	if err != nil {
		return err
	}
	if o.cachedir != "" {
		fmt.Fprintf(os.Stderr, "analysis cache: %d hits, %d misses (%.0f%% hit rate)\n",
			res.Stats.CacheHits, res.Stats.CacheMisses, 100*res.Stats.CacheHitRate())
	}
	if n := len(res.Quarantined); n > 0 {
		fmt.Fprintf(os.Stderr, "degraded: %d of %d packages quarantined after retries (budget %.1f%%):\n",
			n, res.Funnel.Snapshot, 100*o.maxFailureFrac)
		for i, q := range res.Quarantined {
			if i == 10 {
				fmt.Fprintf(os.Stderr, "  ... and %d more\n", n-i)
				break
			}
			fmt.Fprintf(os.Stderr, "  %s (%s): %s\n", q.Package, q.Stage, q.Err)
		}
	}
	if o.stats {
		fmt.Fprintln(os.Stderr, res.Stats.String())
	}

	printStaticReport(out, o, res)
	if o.lintJSON != "" {
		if err := writeJSON(out, o.lintJSON, buildLintReport(o, res)); err != nil {
			return err
		}
	}
	if o.urlsJSON != "" {
		if err := writeJSON(out, o.urlsJSON, buildURLReport(o, res)); err != nil {
			return err
		}
	}
	return nil
}

// writeJSON writes doc indented to path, or to out when path is "-".
func writeJSON(out *os.File, path string, doc any) error {
	w := out
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// buildLintReport assembles the deterministic JSON document: rules in
// registry order, apps in package order (the pipeline already sorts them),
// findings in the analyzer's (class, line, rule) order.
func buildLintReport(o options, res *core.StaticResult) *lintReport {
	doc := &lintReport{Scale: o.scale, Seed: o.seed}
	for _, r := range webviewlint.Rules() {
		doc.Rules = append(doc.Rules, lintRuleSummary{
			ID:       r.ID,
			Severity: string(r.Severity),
			Findings: res.Aggregates.LintRuleFindings[r.ID],
			Apps:     res.Aggregates.LintRuleApps[r.ID],
			ViaSDK:   res.Aggregates.LintRuleViaSDK[r.ID],
		})
	}
	for i := range res.Apps {
		app := &res.Apps[i]
		if len(app.Lint) == 0 {
			continue
		}
		doc.Apps = append(doc.Apps, lintAppFindings{Package: app.Package, Findings: app.Lint})
	}
	return doc
}

// buildURLReport assembles the deterministic -urls-json document: apps in
// package order (the pipeline already sorts them), endpoints in the
// extractor's (class, method, API, URL) order.
func buildURLReport(o options, res *core.StaticResult) *urlReport {
	doc := &urlReport{Scale: o.scale, Seed: o.seed, Kinds: map[string]int{
		urlextract.KindFull: 0, urlextract.KindPrefix: 0, urlextract.KindDynamic: 0,
	}}
	for i := range res.Apps {
		app := &res.Apps[i]
		if len(app.Endpoints) == 0 {
			continue
		}
		doc.Apps++
		doc.Endpoints += len(app.Endpoints)
		for _, ep := range app.Endpoints {
			doc.Kinds[ep.Kind]++
		}
		doc.AppURLs = append(doc.AppURLs, urlAppEndpoints{Package: app.Package, Endpoints: app.Endpoints})
	}
	return doc
}
