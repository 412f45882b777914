package pipeline

import (
	"fmt"
	"strings"
	"time"
)

// StageStats describes one stage of a run.
type StageStats struct {
	// Wall is the time from pipeline start until the stage drained. The
	// per-APK stages (download, analyze, lint, URLs) run in one worker pool
	// and share its drain time; the difference from the metadata stage's,
	// not the sum, describes the run.
	Wall time.Duration
	// In counts items entering the stage, Out items it passed downstream
	// (or, for Analyze, completed successfully).
	In  int
	Out int
	// Quarantined counts packages this stage abandoned after retries;
	// they appear in Result.Quarantined rather than aborting the run.
	Quarantined int
}

// Stats instruments a pipeline run: per-stage wall time and item counts,
// cache traffic, and the high-water mark of APK bytes held in memory. It
// is how the streaming pipeline's behaviour is observed rather than
// asserted.
type Stats struct {
	// List covers the snapshot fetch (serial, before streaming starts).
	List StageStats
	// Metadata covers store-metadata fetch + selection filtering.
	Metadata StageStats
	// Download covers APK fetch and cache lookup. In counts every package
	// that reaches the stage (Metadata.Out minus JournalSkips); each leaves
	// as Out (an image handed to analysis, i.e. a cache miss), a cache hit
	// (which skips the Analyze stage) or a quarantine.
	Download StageStats
	// Analyze covers decompile → parse → call graph → attribution. In is
	// the number of cache misses analysed; Out excludes broken APKs.
	Analyze StageStats
	// Lint covers the WebView misconfiguration stage over the retained
	// parsed sources (all zero when linting is off; In and Out are zero
	// when every app hit the cache).
	Lint StageStats
	// LintFindings counts the findings produced by the lint stage this run
	// (cache hits excluded: their findings were produced by an earlier run).
	LintFindings int
	// URLs covers the URL-extraction stage over the retained call graph
	// (all zero when the stage is off; In and Out are zero when every app
	// hit the cache).
	URLs StageStats
	// URLEndpoints counts the endpoints extracted by the URL stage this run
	// (cache hits excluded, as with LintFindings).
	URLEndpoints int
	// Total is the end-to-end wall time of Run.
	Total time.Duration

	// CacheHits / CacheMisses count content-addressed result-cache
	// lookups (both zero when no cache is configured).
	CacheHits   int
	CacheMisses int

	// Retries counts backoff re-attempts performed during this run by the
	// configured retry policy (zero when Config.Retry or its Metrics are
	// unset).
	Retries int64
	// JournalSkips counts packages replayed from the checkpoint journal
	// instead of being downloaded and analysed; JournalErrors counts
	// best-effort journal appends that failed (the run continues).
	JournalSkips  int
	JournalErrors int

	// PeakInFlightBytes is the high-water mark of APK image bytes held at
	// once, each image counted from its download until it is parsed or
	// served from the cache — bounded by the Workers largest images, not
	// the corpus size.
	PeakInFlightBytes int64
}

// QuarantinedTotal sums the per-stage quarantine counters.
func (s *Stats) QuarantinedTotal() int {
	return s.Metadata.Quarantined + s.Download.Quarantined + s.Analyze.Quarantined
}

// CacheHitRate returns hits/(hits+misses), or 0 before any lookup.
func (s *Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// String renders the stats as a compact multi-line summary.
func (s *Stats) String() string {
	var sb strings.Builder
	row := func(name string, st StageStats) {
		fmt.Fprintf(&sb, "  %-8s wall=%-12v in=%-6d out=%d", name, st.Wall.Round(time.Microsecond), st.In, st.Out)
		if st.Quarantined > 0 {
			fmt.Fprintf(&sb, " quarantined=%d", st.Quarantined)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "pipeline stats (total %v):\n", s.Total.Round(time.Microsecond))
	row("list", s.List)
	row("metadata", s.Metadata)
	row("download", s.Download)
	row("analyze", s.Analyze)
	if s.Lint.In > 0 || s.Lint.Wall > 0 {
		row("lint", s.Lint)
		fmt.Fprintf(&sb, "  lint     findings=%d\n", s.LintFindings)
	}
	if s.URLs.In > 0 || s.URLs.Wall > 0 {
		row("urls", s.URLs)
		fmt.Fprintf(&sb, "  urls     endpoints=%d\n", s.URLEndpoints)
	}
	fmt.Fprintf(&sb, "  cache    hits=%d misses=%d rate=%.1f%%\n",
		s.CacheHits, s.CacheMisses, 100*s.CacheHitRate())
	if s.Retries > 0 || s.QuarantinedTotal() > 0 || s.JournalSkips > 0 || s.JournalErrors > 0 {
		fmt.Fprintf(&sb, "  faults   retries=%d quarantined=%d journal-skips=%d journal-errors=%d\n",
			s.Retries, s.QuarantinedTotal(), s.JournalSkips, s.JournalErrors)
	}
	fmt.Fprintf(&sb, "  memory   peak in-flight APK bytes=%d\n", s.PeakInFlightBytes)
	return sb.String()
}
