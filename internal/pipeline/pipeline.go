// Package pipeline implements the paper's large-scale static-analysis
// pipeline (Figure 1): fetch the AndroZoo snapshot, collect Play Store
// metadata, filter to popular actively-maintained apps, download each APK,
// build its call graph, find the custom WebView subclasses in its class
// hierarchy, traverse the graph from every entry point recording WebView
// and Custom Tabs usage, exclude deep-link-hosted first-party content, and
// label the calling packages with the SDK index. The optional lint stage
// reads the decompiler's walk of the dex (decompiler.Parsed): the
// compilation units the paper's decompile-then-parse method would yield,
// built without rendering or lexing any source text.
//
// The pipeline streams: a pool of metadata workers filters the snapshot
// and hands each selected package to a pool of Config.Workers per-APK
// workers, each of which carries its package from download through
// analysis, lint and URL extraction to the cache write. Metadata fetches
// overlap with downloads and analysis, and peak memory is bounded by
// Config.Workers in-flight APKs rather than the corpus size. Results are
// still aggregated deterministically (sorted by package) regardless of
// completion order.
//
// An optional content-addressed result cache (internal/resultcache), keyed
// by the APK payload digest plus the SDK-index fingerprint, lets a warm
// re-run over an unchanged snapshot skip the analysis stage entirely and
// an incremental snapshot re-analyse only changed APKs. Run instruments
// itself via Stats (per-stage wall time, cache traffic, peak in-flight
// bytes) threaded into the Result.
//
// At corpus scale transient failures are the norm, so the pipeline
// degrades gracefully instead of dying on the first error: network edges
// are wrapped in retries with backoff (Config.Retry), a package whose
// retries are exhausted is quarantined into Result.Quarantined while the
// run continues, and an error budget (Config.MaxFailureFrac) bounds how
// much degradation is acceptable before the run hard-aborts. An optional
// JSONL journal (Config.Journal) checkpoints completed packages so an
// interrupted run resumes without re-downloading finished work.
package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/apk"
	"repro/internal/callgraph"
	"repro/internal/dalvik"
	"repro/internal/decompiler"
	"repro/internal/intern"
	"repro/internal/playstore"
	"repro/internal/resultcache"
	"repro/internal/retry"
	"repro/internal/sdkindex"
	"repro/internal/telemetry"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"

	"repro/internal/android"
)

// Repository is the APK source (AndroZoo).
type Repository interface {
	List(ctx context.Context) ([]string, error)
	Download(ctx context.Context, pkg string) ([]byte, error)
}

// MetadataSource is the app-store metadata service (Play Store).
type MetadataSource interface {
	Metadata(ctx context.Context, pkg string) (playstore.Metadata, error)
}

// Config parameterises a run.
type Config struct {
	// MinDownloads and UpdatedAfter are the selection filter (§3.1.1).
	MinDownloads int64
	UpdatedAfter time.Time
	// Workers sizes the metadata pool and the per-APK pool. The per-APK
	// pool size also bounds the APK images, and their decoded dex files,
	// held in memory at once; 0 means GOMAXPROCS.
	Workers int
	// Index labels calling packages; nil uses the default catalog.
	Index *sdkindex.Index
	// Cache, when non-nil, memoises per-APK analysis results keyed by
	// content digest; a warm run over unchanged APKs skips analysis.
	Cache *resultcache.Cache[Analysis]
	// Lint, when non-nil, runs the WebView misconfiguration linter as an
	// extra stage after analysis. Its rule-config fingerprint is mixed into
	// cache keys, so changing the lint configuration invalidates cached
	// results while leaving pure-analysis caches of lint-off runs untouched.
	Lint *webviewlint.Analyzer
	// URLs, when non-nil, runs the interprocedural URL-extraction engine as
	// a further stage over the retained call graph, recording the endpoints
	// each app's reachable code can construct. Its engine fingerprint is
	// mixed into cache keys, so a warm run over unchanged APKs serves
	// endpoints without re-extracting and an engine change invalidates
	// exactly the URL-bearing entries.
	URLs *urlextract.Extractor
	// Retry, when non-nil, wraps the snapshot listing, metadata fetches
	// and APK downloads in retries with backoff; retryable failures are
	// re-attempted before a package is quarantined.
	Retry *retry.Policy
	// MaxFailureFrac is the error budget: the fraction of snapshot
	// packages that may be quarantined (after retries) before the run
	// hard-aborts. 0 — the default — keeps the historical behaviour of
	// failing the run on the first unrecovered error; a corpus-scale run
	// might set 0.01 to tolerate up to 1% casualties and still produce a
	// complete, quantified result.
	MaxFailureFrac float64
	// Journal, when non-nil, checkpoints each completed package to a JSONL
	// file; a resumed run over the same journal skips their download and
	// analysis entirely. The journal is bound to the index/lint
	// fingerprint at Run start and refuses to resume across config changes.
	Journal *Journal
	// Partition, when non-empty, names the shard partition this run scans
	// (e.g. "2/4@<partition-hash>" from the sharded scan plane). It is
	// mixed into the journal binding — never the content-addressed cache
	// key — so a worker refuses to resume another shard's journal while
	// all shards still share one blob-tier cache.
	Partition string
	// Telemetry, when non-nil, receives the run's metrics (per-stage item
	// and latency families, cache and journal traffic, in-flight bytes) and,
	// if the hub has tracing enabled, one trace per downloaded APK
	// reconstructing its download→analyze→lint path. When nil the stages
	// still update counters — against a private hub — and Stats is derived
	// from them, so instrumented and uninstrumented runs take the same code
	// path. The run also mirrors Cache and Retry.Metrics traffic into the
	// hub.
	Telemetry *telemetry.Hub
}

// Pipeline wires the stages together.
type Pipeline struct {
	repo Repository
	meta MetadataSource
	cfg  Config
	key  string // configKey(cfg), fixed for the pipeline's lifetime
}

// PoolSize is the size of each of a run's worker pools for Config.Workers
// = workers: workers itself, or GOMAXPROCS when it is 0 or less. Each pool
// keeps up to that many requests to one service in flight, so an HTTP
// client of the services keeps that many idle connections per host.
func PoolSize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// New constructs a pipeline over the given services.
func New(repo Repository, meta MetadataSource, cfg Config) *Pipeline {
	cfg.Workers = PoolSize(cfg.Workers)
	if cfg.Index == nil {
		cfg.Index = sdkindex.Default()
	}
	return &Pipeline{repo: repo, meta: meta, cfg: cfg, key: configKey(cfg)}
}

// SDKHit is one SDK observed driving a surface in one app.
type SDKHit struct {
	SDK      string
	Category sdkindex.Category
	// Methods are the WebView API methods this SDK's code called in this
	// app (empty for pure CT hits).
	Methods []string
	CT      bool
}

// Analysis is the content-addressed part of a per-app result: everything
// derived from the APK bytes and the SDK index, and nothing from store
// metadata. It is what the result cache stores — valid for as long as the
// APK digest and index fingerprint both match, however many runs later.
type Analysis struct {
	// Broken marks an APK that failed structural parsing; broken outcomes
	// are cached too, so a warm run re-counts them without re-parsing.
	Broken bool `json:",omitempty"`

	UsesWebView bool
	UsesCT      bool
	// Methods are the distinct WebView API methods reachable anywhere in
	// the app (SDK or first-party), after deep-link exclusion.
	Methods []string
	// MethodsViaSDK are the methods called from labeled SDK packages.
	MethodsViaSDK []string
	// WebViewSDKs / CTSDKs name the labeled SDKs driving each surface.
	WebViewSDKs []SDKHit
	CTSDKs      []SDKHit
	// Subclasses are the in-file classes that extend WebView, directly or
	// transitively: the custom WebViews of §3.1.2.
	Subclasses []string
	// UnlabeledWebViewPackages counts calling packages no SDK-index entry
	// matched (first-party app code or unknown libraries). Packages whose
	// entry is marked Excluded are labeled — just not reported — and are
	// counted in neither statistic.
	UnlabeledWebViewPackages int
	// Lint holds the WebView misconfiguration findings when the lint stage
	// is enabled (nil otherwise — and the cache key differs, so lint-on and
	// lint-off runs never share entries).
	Lint []webviewlint.Finding `json:",omitempty"`
	// Endpoints holds the statically extracted URL endpoints when the URL
	// stage is enabled (nil otherwise; the cache key differs there too).
	Endpoints []urlextract.Endpoint `json:",omitempty"`
}

// AppResult is the per-app outcome of static analysis.
type AppResult struct {
	Package      string
	Title        string
	PlayCategory string
	Downloads    int64
	Broken       bool

	UsesWebView bool
	UsesCT      bool
	// Methods are the distinct WebView API methods reachable anywhere in
	// the app (SDK or first-party), after deep-link exclusion.
	Methods []string
	// MethodsViaSDK are the methods called from labeled SDK packages.
	MethodsViaSDK []string
	// WebViewSDKs / CTSDKs name the labeled SDKs driving each surface.
	WebViewSDKs []SDKHit
	CTSDKs      []SDKHit
	// Subclasses are the in-file classes that extend WebView, directly or
	// transitively: the custom WebViews of §3.1.2.
	Subclasses []string
	// UnlabeledWebViewPackages counts calling packages no SDK-index entry
	// matched (first-party app code or unknown libraries).
	UnlabeledWebViewPackages int
	// Lint holds the app's WebView misconfiguration findings (lint stage
	// enabled only), sorted by (class, line, rule).
	Lint []webviewlint.Finding
	// Endpoints holds the app's statically extracted URL endpoints (URL
	// stage enabled only), sorted by (class, method, API, kind, URL).
	Endpoints []urlextract.Endpoint
}

// appResult joins store metadata with the content-addressed analysis.
func appResult(md playstore.Metadata, an *Analysis) AppResult {
	return AppResult{
		Package:                  md.Package,
		Title:                    md.Title,
		PlayCategory:             md.Category,
		Downloads:                md.Downloads,
		UsesWebView:              an.UsesWebView,
		UsesCT:                   an.UsesCT,
		Methods:                  an.Methods,
		MethodsViaSDK:            an.MethodsViaSDK,
		WebViewSDKs:              an.WebViewSDKs,
		CTSDKs:                   an.CTSDKs,
		Subclasses:               an.Subclasses,
		UnlabeledWebViewPackages: an.UnlabeledWebViewPackages,
		Lint:                     an.Lint,
		Endpoints:                an.Endpoints,
	}
}

// Funnel is the measured dataset funnel (Table 2).
type Funnel struct {
	Snapshot int // packages in the repository snapshot
	OnPlay   int // found on the Play Store
	Popular  int // download threshold passed
	Filtered int // update filter passed
	Broken   int // APKs that failed to parse
	Analyzed int // successfully analysed
}

// Quarantine records one package the pipeline gave up on: the stage that
// failed and the final error after retries. Quarantined packages are
// excluded from Apps and the Analyzed funnel count but do not abort the
// run while the error budget (Config.MaxFailureFrac) holds.
type Quarantine struct {
	Package string
	Stage   string // "metadata", "download" or "analyze"
	Err     string
}

// Result is the aggregate outcome.
type Result struct {
	Funnel Funnel
	Apps   []AppResult // analysed apps (excluding broken), sorted by package
	// Quarantined lists the packages abandoned after retries, sorted by
	// (package, stage); empty on a clean run.
	Quarantined []Quarantine
	Stats       Stats // run instrumentation (stage timings, cache traffic)
}

// Run executes the full pipeline: a feeder and a metadata pool select
// packages, and a per-APK pool takes each one from download to result.
func (p *Pipeline) Run(ctx context.Context) (*Result, error) {
	t0 := time.Now()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	if p.cfg.Journal != nil {
		if err := p.cfg.Journal.Bind(p.journalKey()); err != nil {
			return nil, err
		}
	}
	m := newRunMetrics(p.cfg.Telemetry)
	if p.cfg.Telemetry != nil {
		p.instrumentShared(p.cfg.Telemetry)
	}
	var retriesStart int64
	if p.cfg.Retry != nil && p.cfg.Retry.Metrics != nil {
		retriesStart = p.cfg.Retry.Metrics.Retries.Load()
	}

	res := &Result{}
	listStart := time.Now()
	// The listing retries on the per-package schedule and classifier but
	// counts into no metrics sink: it runs once per pipeline run, so
	// counting its attempt would make per-run metric deltas depend on how
	// a corpus is partitioned across runs; the mirrored retry families
	// (and Stats.Retries) carry per-package traffic only.
	pkgs, err := retry.Do(runCtx, p.cfg.Retry.WithMetrics(nil), func(ctx context.Context) ([]string, error) {
		return p.repo.List(ctx)
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: list: %w", err)
	}
	res.Funnel.Snapshot = len(pkgs)
	res.Stats.List = StageStats{Wall: time.Since(listStart), In: len(pkgs), Out: len(pkgs)}
	res.Stats.Metadata.In = len(pkgs)
	m.metaIn.Add(int64(len(pkgs)))

	workers := p.cfg.Workers

	var (
		mu     sync.Mutex // guards funnel, apps, broken and the quarantine list
		apps   []AppResult
		broken int // plain counter: the keys of the old sync.Map were never read
	)
	var (
		errMu    sync.Mutex
		firstErr error
	)
	// fail records the first real failure and cancels the run. Errors that
	// merely reflect that cancellation (workers unwinding with a context
	// error) never reach here: callers check runCtx first.
	fail := func(stage string, err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf("pipeline: %s: %w", stage, err)
			cancel()
		}
		errMu.Unlock()
	}

	// quarantine abandons one package instead of the whole run: the
	// failure is recorded in the Result and the stage moves on — unless
	// the error budget is spent, in which case the run degrades to the
	// historical abort-on-error behaviour. The budget is a fraction of
	// snapshot packages; the default 0 aborts on the first casualty.
	budget := int(p.cfg.MaxFailureFrac * float64(res.Funnel.Snapshot))
	quarantine := func(stage, pkg string, qerr error) {
		mu.Lock()
		res.Quarantined = append(res.Quarantined, Quarantine{Package: pkg, Stage: stage, Err: qerr.Error()})
		n := len(res.Quarantined)
		mu.Unlock()
		m.quarantined(stage).Inc()
		if n > budget {
			fail(stage, fmt.Errorf("error budget exceeded (%d quarantined > budget %d of %d packages): %w",
				n, budget, res.Funnel.Snapshot, qerr))
		}
	}

	// record checkpoints one completed package into the journal.
	record := func(pkg string, an *Analysis) {
		if p.cfg.Journal == nil {
			return
		}
		if err := p.cfg.Journal.Record(pkg, *an); err != nil {
			m.journalErrors.Inc()
		}
	}

	streamStart := time.Now()

	type selected struct {
		pkg string // snapshot package name, used for download
		md  playstore.Metadata
	}
	// The snapshot is fed in chunks: per-package channel operations dominate
	// the metadata stage once the backend is fast (warm cache, local mirror),
	// and batching cuts them by two orders of magnitude.
	const feedChunk = 64
	pkgCh := make(chan []string)
	selCh := make(chan selected, workers)

	// add counts one completed package into the result.
	add := func(md playstore.Metadata, an *Analysis) {
		mu.Lock()
		if an.Broken {
			broken++
		} else {
			apps = append(apps, appResult(md, an))
		}
		mu.Unlock()
	}

	// Feeder: snapshot packages into the metadata stage.
	go func() {
		defer close(pkgCh)
		for len(pkgs) > 0 {
			n := min(feedChunk, len(pkgs))
			select {
			case pkgCh <- pkgs[:n]:
				pkgs = pkgs[n:]
			case <-runCtx.Done():
				return
			}
		}
	}()

	// Stage 1-2: metadata collection and selection filtering (§3.1.1).
	// Funnel counters accumulate per worker and merge once on exit; the
	// counts are additive, so the result is identical to locking per item.
	var metaWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		metaWG.Add(1)
		go func() {
			defer metaWG.Done()
			var onPlay, popular, filtered int
			defer func() {
				mu.Lock()
				res.Funnel.OnPlay += onPlay
				res.Funnel.Popular += popular
				res.Funnel.Filtered += filtered
				mu.Unlock()
				m.metaOut.Add(int64(filtered))
			}()
			for chunk := range pkgCh {
				for _, pkg := range chunk {
					tm := m.hub.Timer(pkg, "metadata")
					md, err := retry.Do(runCtx, p.cfg.Retry, func(ctx context.Context) (playstore.Metadata, error) {
						md, err := p.meta.Metadata(ctx, pkg)
						if err != nil && errors.Is(err, playstore.ErrNotFound) {
							// Absence is a fact, not a fault: never retried.
							return md, playstore.ErrNotFoundPermanent
						}
						return md, err
					})
					tm.ObserveInto(m.metaLat)
					if err != nil {
						if errors.Is(err, playstore.ErrNotFound) {
							continue
						}
						if runCtx.Err() != nil {
							return
						}
						quarantine("metadata", pkg, err)
						continue
					}
					if md.Downloads < p.cfg.MinDownloads {
						onPlay++
						continue
					}
					if !md.LastUpdated.After(p.cfg.UpdatedAfter) {
						onPlay++
						popular++
						continue
					}
					onPlay++
					popular++
					filtered++
					select {
					case selCh <- selected{pkg: pkg, md: md}:
					case <-runCtx.Done():
						return
					}
				}
			}
		}()
	}

	// Stages 3-8, one worker per package: journal lookup, download, cache
	// lookup and, on a miss, analysis, lint and URL extraction, then the
	// cache write and journal checkpoint. The pool size is the memory
	// bound: at most Workers APK images, and at most Workers packages'
	// decoded dex files, are alive at once, whatever the corpus size.
	var apkWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		apkWG.Add(1)
		go func() {
			defer apkWG.Done()
			for sel := range selCh {
				// A cancelled run takes no further packages.
				if runCtx.Err() != nil {
					return
				}
				// A journaled package already completed in an earlier
				// (interrupted) run: replay its analysis without spending a
				// download or an analysis on it.
				if p.cfg.Journal != nil {
					if an, ok := p.cfg.Journal.Lookup(sel.pkg); ok {
						m.journalSkips.Inc()
						add(sel.md, &an)
						continue
					}
				}
				m.dlIn.Inc()
				tr := m.trace(sel.pkg)
				sp := tr.Start("download")
				tm := m.hub.Timer(sel.pkg, "download")
				img, err := retry.Do(runCtx, p.cfg.Retry, func(ctx context.Context) ([]byte, error) {
					return p.repo.Download(ctx, sel.pkg)
				})
				tm.ObserveInto(m.dlLat)
				if err != nil {
					sp.SetAttr("outcome", "quarantined")
					sp.End()
					if runCtx.Err() != nil {
						return
					}
					quarantine("download", sel.pkg, err)
					continue
				}
				sp.SetAttr("bytes", strconv.Itoa(len(img)))
				sp.End()
				m.apkBytes.Observe(float64(len(img)))
				m.addInFlight(int64(len(img)))

				// One ZIP pass per image: its payload digest keys the cache
				// and, on a miss, the same payload is analysed. Every Read
				// error marks a broken APK, which a nil payload carries.
				pl, _ := apk.Read(img)
				var key string
				if p.cfg.Cache != nil {
					key = p.contentKey(img, pl)
					if an, ok := p.cfg.Cache.Get(key); ok {
						m.cacheHits.Inc()
						m.addInFlight(-int64(len(img)))
						tr.Start("cache", "result", "hit").End()
						add(sel.md, &an)
						record(sel.pkg, &an)
						continue
					}
					m.cacheMisses.Inc()
					tr.Start("cache", "result", "miss").End()
				}
				m.dlOut.Inc()
				an, err := analyzeAPK(m, sel.md.Package, p.cfg.Index, p.cfg.Lint, p.cfg.URLs, img, pl)
				if err != nil {
					if runCtx.Err() != nil {
						return
					}
					quarantine("analyze", sel.md.Package, err)
					continue
				}
				if p.cfg.Cache != nil {
					p.cfg.Cache.Put(key, *an)
				}
				record(sel.md.Package, an)
				add(sel.md, an)
			}
		}()
	}

	// Drain the pools in order: closing selCh once the metadata pool has
	// exited ends the per-APK workers' range loops, and every per-APK stage
	// drains with that pool.
	metaWG.Wait()
	res.Stats.Metadata.Wall = time.Since(streamStart)
	close(selCh)
	apkWG.Wait()
	drained := time.Since(streamStart)
	res.Stats.Download.Wall = drained
	res.Stats.Analyze.Wall = drained
	if p.cfg.Lint != nil {
		res.Stats.Lint.Wall = drained
	}
	if p.cfg.URLs != nil {
		res.Stats.URLs.Wall = drained
	}
	res.Stats.Total = time.Since(t0)
	m.fill(&res.Stats)

	errMu.Lock()
	err = firstErr
	errMu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}

	res.Funnel.Broken = broken
	sort.Slice(apps, func(i, j int) bool { return apps[i].Package < apps[j].Package })
	res.Apps = apps
	res.Funnel.Analyzed = len(apps)
	sort.Slice(res.Quarantined, func(i, j int) bool {
		a, b := res.Quarantined[i], res.Quarantined[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Stage < b.Stage
	})
	if p.cfg.Retry != nil && p.cfg.Retry.Metrics != nil {
		res.Stats.Retries = p.cfg.Retry.Metrics.Retries.Load() - retriesStart
	}
	return res, nil
}

// analysisVersion is the generation of the per-APK analysis code no other
// fingerprint covers: the APK reader (apk.Read and Payload.Open), the
// manifest decoder, callgraph, attributeSDKs and the decompiler's walk
// (decompiler.Parsed), which the lint stage reads. Bump it on any change
// to what they produce, so cached analyses and journals from an older
// binary are not served; TestAnalysisVersionPinsOutput fails on a change
// without a bump.
const analysisVersion = 3

// configKey fingerprints the analysis code and configuration (the
// analysis version, the SDK index and, when enabled, the lint rule set and
// URL extractor) — the part of the cache key that does not depend on APK
// content. The journal binds to it so resumed entries are only replayed
// under the configuration that produced them.
func configKey(cfg Config) string {
	key := cfg.Index.Fingerprint() + "@analysis:" + strconv.Itoa(analysisVersion)
	if cfg.Lint != nil {
		key += "@lint:" + cfg.Lint.Fingerprint()
	}
	if cfg.URLs != nil {
		key += "@urls:" + cfg.URLs.Fingerprint()
	}
	return key
}

// ConfigKey exposes the analysis-configuration fingerprint, so the shard
// coordinator can assert every worker runs the same configuration before
// accepting its results into a merged report.
func (p *Pipeline) ConfigKey() string { return p.key }

// journalKey binds the journal to both the analysis configuration and, for
// sharded runs, the shard partition spec. The partition is deliberately
// absent from contentKey: the cache stays content-addressed and shared
// across shards (and across different shard counts), while the journal —
// which records which packages of *this* partition are complete — refuses
// to resume under a foreign partition.
func (p *Pipeline) journalKey() string {
	key := p.key
	if p.cfg.Partition != "" {
		key += "@shard:" + p.cfg.Partition
	}
	return key
}

// contentKey derives the cache key for an APK image from its ZIP pass
// (apk.Read): the payload digest (recomputed from content, so a tampered
// DIGEST entry cannot poison another APK's slot) plus the analysis version
// and the SDK-index fingerprint, so changing the analysis code or the
// catalog invalidates all cached attributions. Images too broken to
// digest (a nil payload: apk.Read failed, on damage or on a form it
// refuses in any entry) fall back to a hash of the raw bytes — still
// content-addressed, so even broken APKs hit the cache on a warm run. With
// linting enabled the rule-config fingerprint is appended too: cached
// entries then include lint findings, and editing the rule set (or
// toggling lint) moves to fresh keys instead of serving stale findings.
func (p *Pipeline) contentKey(img []byte, pl *apk.Payload) string {
	if pl == nil {
		sum := sha256.Sum256(img)
		return "raw-" + hex.EncodeToString(sum[:]) + "@" + p.key
	}
	return pl.Digest + "@" + p.key
}

// exclPool recycles the per-APK deep-link exclusion set.
var exclPool = sync.Pool{New: func() any { return make(map[string]bool, 4) }}

// parsedAPK is the per-APK intermediate lint and URL extraction consume:
// the decoded dex, the bytecode call graph and the deep-link exclusion
// set. All are produced by the analysis anyway; retaining them (only when
// a later stage exists) avoids decoding the APK again. It never leaves the
// goroutine analysing its APK, so the graph's non-concurrency-safe
// memoisation is fine.
type parsedAPK struct {
	dex   *dalvik.File
	graph *callgraph.Graph
	excl  map[string]bool // deep-link classes excluded from attribution
}

// AnalyzeAndExtract performs the per-APK static analysis — call-graph
// traversal, custom WebView subclasses, SDK attribution — against the
// given index (nil uses the default catalog), then the lint stage and the
// URL-extraction stage, each skipped when its engine is nil, exactly as a
// pipeline worker does for one image. A structurally broken APK yields
// Analysis{Broken: true}, not an error.
func AnalyzeAndExtract(idx *sdkindex.Index, lint *webviewlint.Analyzer, ex *urlextract.Extractor, img []byte) (*Analysis, error) {
	if idx == nil {
		idx = sdkindex.Default()
	}
	pl, _ := apk.Read(img) // a nil payload is a broken APK
	return analyzeAPK(new(runMetrics), "", idx, lint, ex, img, pl)
}

// analyzeAPK runs one downloaded image through the per-APK stages in
// order: the analysis proper, then lint and URL extraction when their
// engines are non-nil. Each stage counts its items in m and records its
// latency and span under pkg; a zero runMetrics records nothing. The
// image's in-flight bytes are released once it is decoded: the later
// stages read only the retained dex and call graph. pl is the image's ZIP
// pass (apk.Read), nil when the archive does not read.
func analyzeAPK(m *runMetrics, pkg string, idx *sdkindex.Index, lint *webviewlint.Analyzer, ex *urlextract.Extractor, img []byte, pl *apk.Payload) (*Analysis, error) {
	m.anIn.Inc()
	tr := m.trace(pkg)
	sp := tr.Start("analyze")
	tm := m.hub.Timer(pkg, "analyze")
	an, parsed, err := analyzeImage(idx, pl, lint != nil || ex != nil, tr)
	tm.ObserveInto(m.anLat)
	m.addInFlight(-int64(len(img)))
	if err != nil {
		sp.SetAttr("outcome", "quarantined")
		sp.End()
		return nil, err
	}
	if an.Broken {
		sp.SetAttr("outcome", "broken")
		sp.End()
		return an, nil
	}
	sp.End()
	m.anOut.Inc()

	// Lint reads the decompiler's walk of the dex: the compilation units
	// the paper's decompile-then-parse round trip would produce.
	if lint != nil {
		m.lintIn.Inc()
		sp = tr.Start("lint")
		tm = m.hub.Timer(pkg, "lint")
		an.Lint = lint.Analyze(webviewlint.App{Units: decompiler.Parsed(parsed.dex), Graph: parsed.graph, Index: idx})
		tm.ObserveInto(m.lintLat)
		sp.SetAttr("findings", strconv.Itoa(len(an.Lint)))
		sp.End()
		m.lintOut.Inc()
		m.lintFindings.Add(int64(len(an.Lint)))
	}
	// URL extraction runs over the retained call graph with the same
	// deep-link exclusion set the usage traversal applied.
	if ex != nil {
		m.urlsIn.Inc()
		sp = tr.Start("urls")
		tm = m.hub.Timer(pkg, "urls")
		an.Endpoints = ex.Extract(parsed.graph, parsed.excl, idx)
		tm.ObserveInto(m.urlsLat)
		sp.SetAttr("endpoints", strconv.Itoa(len(an.Endpoints)))
		sp.End()
		m.urlsOut.Inc()
		m.urlEndpoints.Add(int64(len(an.Endpoints)))
	}
	an.normalize()
	return an, nil
}

func analyzeImage(idx *sdkindex.Index, pl *apk.Payload, keepParsed bool, tr *telemetry.Trace) (*Analysis, *parsedAPK, error) {
	if pl == nil {
		return &Analysis{Broken: true}, nil, nil
	}
	a, err := pl.Open()
	if err != nil {
		if errors.Is(err, apk.ErrBroken) {
			return &Analysis{Broken: true}, nil, nil
		}
		return nil, nil, err
	}

	// Call-graph traversal with deep-link exclusion (§3.1.3).
	excl := exclPool.Get().(map[string]bool)
	defer exclPool.Put(excl)
	clear(excl)
	for _, dl := range a.Manifest.DeepLinkActivities() {
		excl[dl] = true
	}
	cg := tr.Child("analyze", "callgraph")
	g := callgraph.Build(a.Dex)
	usage := g.AnalyzeUsage(excl)
	cg.End()
	var parsed *parsedAPK
	if keepParsed {
		parsed = &parsedAPK{dex: a.Dex, graph: g}
		if len(excl) > 0 {
			// The pooled map is reused; later stages need their own copy.
			parsed.excl = maps.Clone(excl)
		}
	}

	// Custom WebView subclasses (§3.1.2) come from the bytecode hierarchy:
	// every in-file class whose superclass chain reaches WebView.
	an := &Analysis{
		UsesWebView: usage.UsesWebView(),
		UsesCT:      usage.UsesCT(),
		Methods:     usage.MethodsCalled(),
		Subclasses:  usage.WebViewSubclasses,
	}
	attributeSDKs(idx, an, usage)
	return an, parsed, nil
}

// normalize maps empty slices to nil so that a fresh analysis and one
// decoded from a persistent cache blob (where JSON turns absent into nil)
// are deeply equal — warm and cold runs must produce identical Results.
func (an *Analysis) normalize() {
	if len(an.Methods) == 0 {
		an.Methods = nil
	}
	if len(an.MethodsViaSDK) == 0 {
		an.MethodsViaSDK = nil
	}
	if len(an.WebViewSDKs) == 0 {
		an.WebViewSDKs = nil
	}
	if len(an.CTSDKs) == 0 {
		an.CTSDKs = nil
	}
	if len(an.Subclasses) == 0 {
		an.Subclasses = nil
	}
	if len(an.Lint) == 0 {
		an.Lint = nil
	}
	if len(an.Endpoints) == 0 {
		an.Endpoints = nil
	}
}

// attributeSDKs labels call sites with the SDK index (§3.1.4). WebView
// attribution follows the paper: the package owning the class that calls a
// content-populating method (loadUrl/loadData/loadDataWithBaseURL) is the
// WebView's driver; its other method calls ride along. CT attribution keys
// on launchUrl and CustomTabsIntent construction. Excluded index entries
// (e.g. com.google.android) are labeled packages deliberately left out of
// SDK statistics — they count as neither an SDK hit nor an unlabeled
// package.
func attributeSDKs(idx *sdkindex.Index, an *Analysis, usage *callgraph.Usage) {
	type agg struct {
		sdk     *sdkindex.SDK
		methods map[string]bool
		loads   bool
		ct      bool
	}
	bySDK := make(map[string]*agg, 8)
	unlabeled := make(map[string]bool, 8)
	viaSDKMethods := make(map[string]bool, len(android.WebViewMethods))

	for _, call := range usage.WebViewCalls {
		pkg := call.CallerPackage()
		sdk, ok := idx.Lookup(pkg)
		if !ok {
			unlabeled[intern.String(pkg)] = true
			continue
		}
		if sdk.Excluded {
			continue
		}
		a := bySDK[sdk.Name]
		if a == nil {
			a = &agg{sdk: sdk, methods: make(map[string]bool, 4)}
			bySDK[sdk.Name] = a
		}
		name := intern.String(call.Target.Name)
		a.methods[name] = true
		viaSDKMethods[name] = true
		if android.IsLoadMethod(name) {
			a.loads = true
		}
	}
	for _, call := range usage.CTCalls {
		pkg := call.CallerPackage()
		sdk, ok := idx.Lookup(pkg)
		if !ok || sdk.Excluded {
			continue
		}
		if call.Target.Name == android.MethodLaunchURL || call.Target.Name == "<init>" || call.Target.Name == "build" {
			a := bySDK[sdk.Name]
			if a == nil {
				a = &agg{sdk: sdk, methods: make(map[string]bool, 4)}
				bySDK[sdk.Name] = a
			}
			a.ct = true
		}
	}

	names := make([]string, 0, len(bySDK))
	for name := range bySDK {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := bySDK[name]
		if a.loads {
			hit := SDKHit{SDK: name, Category: a.sdk.Category, Methods: sortedKeys(a.methods)}
			an.WebViewSDKs = append(an.WebViewSDKs, hit)
		}
		if a.ct {
			an.CTSDKs = append(an.CTSDKs, SDKHit{SDK: name, Category: a.sdk.Category, CT: true})
		}
	}
	an.MethodsViaSDK = sortedKeys(viaSDKMethods)
	an.UnlabeledWebViewPackages = len(unlabeled)
}

// sortedKeys returns the map's keys sorted, or nil for an empty map (so
// cache round trips through JSON stay deeply equal).
func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
