package pipeline

import (
	"sync/atomic"

	"repro/internal/resultcache"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

// Metric families the pipeline maintains. Every counter here is updated
// with one lock-free atomic add on the hot path; Stats is derived from
// them when Run finishes, so the bespoke mutex-guarded stat plumbing the
// streaming stages used to carry is gone and a live /metrics scrape and
// the end-of-run Stats always agree.
const (
	famStageItems   = "pipeline_stage_items_total"
	famStageQuar    = "pipeline_stage_quarantined_total"
	famStageLatency = "pipeline_stage_latency_seconds"
	famAPKBytes     = "pipeline_apk_bytes"
	famInFlight     = "pipeline_inflight_bytes"
	famCache        = "pipeline_cache_total"
	famLintFindings = "pipeline_lint_findings_total"
	famURLEndpoints = "pipeline_url_endpoints_total"
)

// runMetrics resolves every handle one Run updates. The hub may be shared
// across runs (and with the crawler), so Stats deltas are computed against
// the counter values captured at Run start.
type runMetrics struct {
	hub *telemetry.Hub

	metaIn, metaOut *telemetry.Counter
	dlIn, dlOut     *telemetry.Counter
	anIn, anOut     *telemetry.Counter
	lintIn, lintOut *telemetry.Counter
	urlsIn, urlsOut *telemetry.Counter

	quarMeta, quarDL, quarAn *telemetry.Counter

	cacheHits, cacheMisses *telemetry.Counter
	lintFindings           *telemetry.Counter
	urlEndpoints           *telemetry.Counter

	metaLat, dlLat, anLat, lintLat, urlsLat *telemetry.Histogram
	apkBytes                                *telemetry.Histogram

	inflight *telemetry.Gauge
	// peak is the in-flight high-water mark. It is scheduling-dependent —
	// which downloads overlap varies run to run — so it lives in Stats
	// only, never in the registry, keeping deterministic-mode snapshots
	// byte-identical across runs.
	peak atomic.Int64

	start statsBase
}

// statsBase is the counter baseline captured at Run start.
type statsBase struct {
	metaIn, metaOut, dlIn, dlOut, anIn, anOut, lintIn, lintOut int64
	urlsIn, urlsOut                                            int64
	quarMeta, quarDL, quarAn                                   int64
	cacheHits, cacheMisses                                     int64
	lintFindings                                               int64
	urlEndpoints                                               int64
}

// newRunMetrics builds the handle set against hub, or against a fresh
// private hub when the run has no telemetry configured — the stages then
// update real counters either way and never branch on instrumentation.
func newRunMetrics(hub *telemetry.Hub) *runMetrics {
	if hub == nil {
		hub = telemetry.New(telemetry.Options{})
	}
	items := func(stage, dir string) *telemetry.Counter {
		return hub.Counter(famStageItems, "items entering (in) and leaving (out) each streaming stage", "stage", stage, "dir", dir)
	}
	quar := func(stage string) *telemetry.Counter {
		return hub.Counter(famStageQuar, "packages abandoned after retries, by failing stage", "stage", stage)
	}
	lat := func(stage string) *telemetry.Histogram {
		return hub.Histogram(famStageLatency, "per-item stage latency in seconds", nil, "stage", stage)
	}
	cache := func(result string) *telemetry.Counter {
		return hub.Counter(famCache, "content-addressed result-cache lookups by outcome", "result", result)
	}
	m := &runMetrics{
		hub:     hub,
		metaIn:  items("metadata", "in"),
		metaOut: items("metadata", "out"),
		dlIn:    items("download", "in"),
		dlOut:   items("download", "out"),
		anIn:    items("analyze", "in"),
		anOut:   items("analyze", "out"),
		lintIn:  items("lint", "in"),
		lintOut: items("lint", "out"),
		urlsIn:  items("urls", "in"),
		urlsOut: items("urls", "out"),

		quarMeta: quar("metadata"),
		quarDL:   quar("download"),
		quarAn:   quar("analyze"),

		cacheHits:    cache("hit"),
		cacheMisses:  cache("miss"),
		lintFindings: hub.Counter(famLintFindings, "lint findings produced this run (cache hits excluded)"),
		urlEndpoints: hub.Counter(famURLEndpoints, "URL endpoints extracted this run (cache hits excluded)"),

		metaLat:  lat("metadata"),
		dlLat:    lat("download"),
		anLat:    lat("analyze"),
		lintLat:  lat("lint"),
		urlsLat:  lat("urls"),
		apkBytes: hub.Histogram(famAPKBytes, "downloaded APK image sizes in bytes", telemetry.DefaultSizeBuckets),

		inflight: hub.Gauge(famInFlight, "APK image bytes currently held by the download and analyze stages"),
	}
	m.start = m.base()
	return m
}

func (m *runMetrics) base() statsBase {
	return statsBase{
		metaIn: m.metaIn.Value(), metaOut: m.metaOut.Value(),
		dlIn: m.dlIn.Value(), dlOut: m.dlOut.Value(),
		anIn: m.anIn.Value(), anOut: m.anOut.Value(),
		lintIn: m.lintIn.Value(), lintOut: m.lintOut.Value(),
		urlsIn: m.urlsIn.Value(), urlsOut: m.urlsOut.Value(),
		quarMeta: m.quarMeta.Value(), quarDL: m.quarDL.Value(), quarAn: m.quarAn.Value(),
		cacheHits: m.cacheHits.Value(), cacheMisses: m.cacheMisses.Value(),
		lintFindings: m.lintFindings.Value(),
		urlEndpoints: m.urlEndpoints.Value(),
	}
}

// trace resolves the per-APK trace for a package, under the run's trace
// namespace. Nil (a no-op trace) when tracing is off.
func (m *runMetrics) trace(pkg string) *telemetry.Trace {
	return m.hub.Trace("apk:" + pkg)
}

// quarantined returns the counter for one stage's quarantine events.
func (m *runMetrics) quarantined(stage string) *telemetry.Counter {
	switch stage {
	case "metadata":
		return m.quarMeta
	case "download":
		return m.quarDL
	default:
		return m.quarAn
	}
}

// addInFlight moves the in-flight gauge by n bytes and maintains the
// run-local high-water mark.
func (m *runMetrics) addInFlight(n int64) {
	v := m.inflight.Add(n)
	for {
		p := m.peak.Load()
		if v <= p || m.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// fill derives the run's Stats counters as deltas against the baseline.
// Wall times and Retries are set by Run directly.
func (m *runMetrics) fill(s *Stats) {
	end, start := m.base(), m.start
	s.Metadata.Out = int(end.metaOut - start.metaOut)
	s.Download.In = int(end.dlIn - start.dlIn)
	s.Download.Out = int(end.dlOut - start.dlOut)
	s.Download.Quarantined = int(end.quarDL - start.quarDL)
	s.Metadata.Quarantined = int(end.quarMeta - start.quarMeta)
	s.Analyze.In = int(end.anIn - start.anIn)
	s.Analyze.Out = int(end.anOut - start.anOut)
	s.Analyze.Quarantined = int(end.quarAn - start.quarAn)
	s.Lint.In = int(end.lintIn - start.lintIn)
	s.Lint.Out = int(end.lintOut - start.lintOut)
	s.LintFindings = int(end.lintFindings - start.lintFindings)
	s.URLs.In = int(end.urlsIn - start.urlsIn)
	s.URLs.Out = int(end.urlsOut - start.urlsOut)
	s.URLEndpoints = int(end.urlEndpoints - start.urlEndpoints)
	s.CacheHits = int(end.cacheHits - start.cacheHits)
	s.CacheMisses = int(end.cacheMisses - start.cacheMisses)
	s.PeakInFlightBytes = m.peak.Load()
}

// instrumentShared mirrors the run's shared collaborators — result cache
// and retry metrics — into the externally provided hub, so a live scrape
// sees their traffic too. Only called with an external hub: wiring them to
// a private per-run hub would just be discarded work.
func (p *Pipeline) instrumentShared(hub *telemetry.Hub) {
	if c := p.cfg.Cache; c != nil {
		event := func(ev string) *telemetry.Counter {
			return hub.Counter("resultcache_events_total", "result-cache tier traffic by event", "event", ev)
		}
		c.SetHooks(resultcache.Hooks{
			Hits:      event("hit"),
			Misses:    event("miss"),
			MemHits:   event("mem_hit"),
			StoreHits: event("store_hit"),
			Evictions: event("evict"),
			Errors:    event("error"),
			Purged:    event("purge"),
		})
	}
	if p.cfg.Retry != nil && p.cfg.Retry.Metrics != nil {
		p.cfg.Retry.Metrics.Mirror = retry.Mirror{
			Attempts: hub.Counter("retry_attempts_total", "operation invocations, first tries included"),
			Retries:  hub.Counter("retry_retries_total", "re-invocations after a retryable failure"),
			Failures: hub.Counter("retry_failures_total", "operations that exhausted retries or hit a permanent error"),
		}
	}
}
