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
//	           [-cpuprofile FILE] [-memprofile FILE]
//	           [-telemetry-addr ADDR] [-metrics-out FILE] [-trace-out FILE]
//	           [-telemetry-wallclock]
//	           [-coordinator ADDR] [-shards N] [-shard-spawn N]
//	           [-shard-ttl D] [-dl-latency D]
//	staticscan -join URL
//	staticscan -fleet-status URL
//
// Scale divides the paper's 6.5M-app population; scale 1 reproduces
// full-paper counts (slow and memory-hungry), the default 200 finishes in
// seconds with the same shapes.
//
// Every scan is a coordinator: it partitions the streamed corpus into
// -shards partitions (default 1), a worker in its own process scans them,
// and -shard-spawn N adds N worker processes; other processes may -join
// its control plane on -coordinator ADDR. The merged result is the
// report, byte-identical at every topology.
//
// With -cachedir, per-APK analyses are cached on disk keyed by APK content
// digest: a re-run over an unchanged corpus downloads each APK but skips
// its call-graph, lint and URL work entirely (the stats line reports the
// hit rate). Edit the SDK catalog or the corpus and the affected entries
// miss and recompute. This is also how an interrupted run resumes: rerun
// it with the same -cachedir, and every package it completed is a hit.
// -stats prints the merged per-stage pipeline summary to stderr.
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
// that fraction of each partition be quarantined (after retries) without
// aborting the run, with casualties summarised on stderr. -faults
// injects deterministic failures for testing the above, e.g.
// "seed=7,err=0.1,lat=1ms,latrate=0.05,trunc=0.02,corrupt=0.02":
// err/latrate perturb the repository and metadata interfaces, trunc and
// corrupt damage HTTP payloads beneath the client's integrity checks,
// and err/corrupt also harass the persistent cache tier. Every worker
// applies both settings from the coordinator's run spec.
//
// Observability: the coordinator federates every worker's metrics
// registry and per-APK trace spans behind /fleet/metrics,
// /fleet/metrics.json, /fleet/status and /fleet/trace on its -coordinator
// address; `staticscan -fleet-status URL` renders the live status from
// another terminal. -metrics-out writes the federated rollup and
// -trace-out the stitched per-APK trace on exit ("-" for stdout), the same
// bytes at every topology; a run that fails before its merge writes its
// workers' final registries instead. -telemetry-addr serves the
// coordinator process's own /metrics (its lease families), /metrics.json,
// /healthz, /trace (its control spans) and /debug/pprof live. Durations
// are seed-derived by default so same-seed runs emit byte-identical
// telemetry; pass -telemetry-wallclock for real latencies. A -join worker
// takes no telemetry output: its telemetry leaves it through the
// coordinator.
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/profiling"
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
	coordinator := flag.String("coordinator", "127.0.0.1:0", "control-plane listen address of the scan's coordinator")
	shards := flag.Int("shards", 1, "partitions of the corpus")
	shardSpawn := flag.Int("shard-spawn", 0, "worker processes to spawn beside the coordinator's own worker")
	join := flag.String("join", "", "run as a worker of the coordinator at this URL")
	shardTTL := flag.Duration("shard-ttl", 0, "work-lease TTL (0 = coordinator default)")
	dlLatency := flag.Duration("dl-latency", 0, "modeled per-APK repository transfer time")
	fleetStatus := flag.String("fleet-status", "", "render a running coordinator's /fleet/status and exit (coordinator URL)")
	var prof profiling.Flags
	prof.Register(nil)
	var telem telemetry.Flags
	telem.Register(nil)
	flag.Parse()
	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			log.Fatal(err)
		}
	}()

	o := options{
		scale: *scale, seed: *seed, workers: *workers,
		cachedir: *cachedir, stats: *stats,
		lint:     *lint || *lintRules != "" || *lintJSON != "",
		lintJSON: *lintJSON,
		urls:     *urls || *urlsJSON != "",
		urlsJSON: *urlsJSON,
		retries:  *retries, maxFailureFrac: *maxFailureFrac, faults: *faultsSpec,
		listen: *coordinator, shards: *shards, spawn: *shardSpawn,
		ttl: *shardTTL, dlLatency: *dlLatency,
		wallclock: telem.Wallclock,
	}
	if *lintRules != "" {
		o.lintRules = strings.Split(*lintRules, ",")
	}
	var err error
	switch {
	case *fleetStatus != "":
		err = runFleetStatus(os.Stdout, *fleetStatus)
	case *join != "":
		err = runWorker(*join, *retries, &telem)
	default:
		err = scan(os.Stdout, o, &telem)
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
	listen         string        // -coordinator control-plane address
	shards         int           // -shards partition count
	spawn          int           // -shard-spawn extra worker processes
	ttl            time.Duration // -shard-ttl lease TTL
	dlLatency      time.Duration // -dl-latency modeled APK transfer time
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

// writeJSONReports writes the -lint-json and -urls-json documents that
// were asked for.
func writeJSONReports(out *os.File, o options, res *core.StaticResult) error {
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
