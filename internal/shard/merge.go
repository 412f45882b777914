package shard

import (
	"sort"

	"repro/internal/pipeline"
)

// Merge folds per-partition results into the canonical single-process
// report. Everything user-visible is a pure function of the merged fields:
// funnel counts are additive across partitions (every package lands in
// exactly one), apps and quarantines are concatenated and re-sorted into
// the pipeline's canonical orders, so the merged report renders
// byte-identically to a sequential run over the whole snapshot.
//
// Stats are merged for observability — counters add, stage walls take the
// per-shard maximum (shards overlap in time) — but carry no report-visible
// data.
func Merge(parts []*pipeline.Result) *pipeline.Result {
	merged := &pipeline.Result{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		merged.Funnel.Snapshot += p.Funnel.Snapshot
		merged.Funnel.OnPlay += p.Funnel.OnPlay
		merged.Funnel.Popular += p.Funnel.Popular
		merged.Funnel.Filtered += p.Funnel.Filtered
		merged.Funnel.Broken += p.Funnel.Broken
		merged.Funnel.Analyzed += p.Funnel.Analyzed
		merged.Apps = append(merged.Apps, p.Apps...)
		merged.Quarantined = append(merged.Quarantined, p.Quarantined...)
		mergeStats(&merged.Stats, &p.Stats)
	}
	sort.Slice(merged.Apps, func(i, j int) bool {
		return merged.Apps[i].Package < merged.Apps[j].Package
	})
	sort.Slice(merged.Quarantined, func(i, j int) bool {
		a, b := merged.Quarantined[i], merged.Quarantined[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Stage < b.Stage
	})
	return merged
}

func mergeStats(dst, src *pipeline.Stats) {
	mergeStage(&dst.List, &src.List)
	mergeStage(&dst.Metadata, &src.Metadata)
	mergeStage(&dst.Download, &src.Download)
	mergeStage(&dst.Analyze, &src.Analyze)
	mergeStage(&dst.Lint, &src.Lint)
	mergeStage(&dst.URLs, &src.URLs)
	dst.LintFindings += src.LintFindings
	dst.URLEndpoints += src.URLEndpoints
	if src.Total > dst.Total {
		dst.Total = src.Total
	}
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	dst.Retries += src.Retries
	// Shards are separate processes: their in-flight high-water marks add
	// up to the plane's worst-case memory footprint.
	dst.PeakInFlightBytes += src.PeakInFlightBytes
}

func mergeStage(dst, src *pipeline.StageStats) {
	if src.Wall > dst.Wall {
		dst.Wall = src.Wall
	}
	dst.In += src.In
	dst.Out += src.Out
	dst.Quarantined += src.Quarantined
}
