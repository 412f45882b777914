// Package core is the public face of the reproduction: it composes the
// substrate packages into the paper's two studies.
//
//   - StaticStudy (§3.1): the large-scale Figure-1 pipeline over an APK
//     repository and a store-metadata source, producing the aggregates
//     behind Tables 2, 3, 4, 5, 7 and Figures 3, 4.
//   - DynamicStudy (§3.2): the semi-manual top-1K analysis on a simulated
//     device — hyperlink-behaviour classification (Table 6), WebView-IAB
//     instrumentation (Tables 8 and 9), and the top-site crawl (Figure 6).
//
// The package re-exports the result types callers need, so examples and
// tools depend on core alone.
package core

import (
	"context"
	"time"

	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/resultcache"
	"repro/internal/retry"
	"repro/internal/sdkindex"
	"repro/internal/telemetry"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

// StaticConfig parameterises the static study.
type StaticConfig struct {
	// MinDownloads and UpdatedAfter define the app-selection filter
	// (§3.1.1). Zero values use the paper's: 100K downloads, 2021-01-01.
	MinDownloads int64
	UpdatedAfter time.Time
	// Workers bounds analysis concurrency (0 = GOMAXPROCS).
	Workers int
	// Index labels SDK packages (nil = the built-in catalog).
	Index *sdkindex.Index
	// Cache, when non-nil, memoises per-APK analyses by content digest so
	// repeated runs over an unchanged corpus skip download-side CPU work.
	Cache *resultcache.Cache[pipeline.Analysis]
	// Lint enables the WebView misconfiguration lint stage; LintRules
	// restricts it to the named rule IDs (nil = every registry rule).
	Lint      bool
	LintRules []string
	// URLs enables the interprocedural URL-extraction stage: per-app static
	// endpoints appear on AppResult.Endpoints and feed the static↔dynamic
	// agreement report.
	URLs bool
	// Retry, when non-nil, wraps the pipeline's network edges (snapshot
	// listing, metadata fetch, APK download) in retries with backoff.
	Retry *retry.Policy
	// MaxFailureFrac is the error budget: the fraction of snapshot packages
	// that may be quarantined after retries before the run aborts (0 =
	// abort on the first unrecovered failure).
	MaxFailureFrac float64
	// Telemetry, when non-nil, receives the pipeline's per-stage counters,
	// latency histograms, cache/retry events and — if the hub has
	// tracing enabled — one trace per APK.
	Telemetry *telemetry.Hub
}

// StaticStudy runs the large-scale static analysis.
type StaticStudy struct {
	pipe *pipeline.Pipeline
}

// StaticResult bundles the raw per-app results with their aggregates.
type StaticResult struct {
	Funnel     pipeline.Funnel
	Apps       []pipeline.AppResult
	Aggregates *pipeline.Aggregates
	// Quarantined lists packages abandoned after retries (empty on a clean
	// run); the run completed degraded but within its error budget.
	Quarantined []pipeline.Quarantine
	// Stats reports per-stage wall time, throughput, cache effectiveness
	// and the peak number of APK bytes held in flight.
	Stats pipeline.Stats
}

// NewStaticStudy wires the pipeline over the given services. It returns an
// error only for an invalid lint configuration (an unknown rule ID).
func NewStaticStudy(repo pipeline.Repository, meta pipeline.MetadataSource, cfg StaticConfig) (*StaticStudy, error) {
	if cfg.MinDownloads == 0 {
		cfg.MinDownloads = corpus.MinDownloads
	}
	if cfg.UpdatedAfter.IsZero() {
		cfg.UpdatedAfter = corpus.UpdateCutoff
	}
	var lint *webviewlint.Analyzer
	if cfg.Lint || cfg.LintRules != nil {
		var err error
		if lint, err = webviewlint.New(webviewlint.Config{Rules: cfg.LintRules}); err != nil {
			return nil, err
		}
	}
	var urls *urlextract.Extractor
	if cfg.URLs {
		urls = urlextract.New(urlextract.Config{})
	}
	return &StaticStudy{
		pipe: pipeline.New(repo, meta, pipeline.Config{
			MinDownloads:   cfg.MinDownloads,
			UpdatedAfter:   cfg.UpdatedAfter,
			Workers:        cfg.Workers,
			Index:          cfg.Index,
			Cache:          cfg.Cache,
			Lint:           lint,
			URLs:           urls,
			Retry:          cfg.Retry,
			MaxFailureFrac: cfg.MaxFailureFrac,
			Telemetry:      cfg.Telemetry,
		}),
	}, nil
}

// Run executes the study.
func (s *StaticStudy) Run(ctx context.Context) (*StaticResult, error) {
	res, err := s.pipe.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &StaticResult{
		Funnel:      res.Funnel,
		Apps:        res.Apps,
		Aggregates:  pipeline.Aggregate(res),
		Quarantined: res.Quarantined,
		Stats:       res.Stats,
	}, nil
}
