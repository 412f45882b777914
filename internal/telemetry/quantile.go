package telemetry

import (
	"math"
	"sort"
	"strconv"
)

// HistogramQuantile estimates the q-quantile (0 ≤ q ≤ 1) of a fixed-bucket
// histogram from its cumulative bucket counts, Prometheus
// histogram_quantile style: find the bucket the target rank falls in and
// interpolate linearly within it. bounds are the ascending upper bucket
// bounds and cumulative the matching cumulative counts; both must include
// the +Inf bucket last. Ranks landing in the +Inf bucket clamp to the
// highest finite bound (the honest answer for an unbounded bucket), and
// ranks in the first bucket interpolate from zero. Reports false for an
// empty histogram or malformed inputs.
func HistogramQuantile(q float64, bounds, cumulative []float64) (float64, bool) {
	if len(bounds) == 0 || len(bounds) != len(cumulative) || q < 0 || q > 1 || math.IsNaN(q) {
		return 0, false
	}
	total := cumulative[len(cumulative)-1]
	if total <= 0 {
		return 0, false
	}
	rank := q * total
	idx := sort.Search(len(cumulative), func(i int) bool { return cumulative[i] >= rank })
	if idx == len(cumulative) {
		idx = len(cumulative) - 1
	}
	if math.IsInf(bounds[idx], 1) {
		// The tail bucket has no upper edge; the best defensible point
		// estimate is the largest finite bound.
		for i := idx - 1; i >= 0; i-- {
			if !math.IsInf(bounds[i], 1) {
				return bounds[i], true
			}
		}
		return 0, false
	}
	var lower, below float64
	if idx > 0 {
		lower = bounds[idx-1]
		below = cumulative[idx-1]
	}
	inBucket := cumulative[idx] - below
	if inBucket <= 0 {
		return bounds[idx], true
	}
	return lower + (bounds[idx]-lower)*(rank-below)/inBucket, true
}

// Quantile estimates the q-quantile of a histogram series from its
// cumulative buckets. Reports false for a nil, non-histogram or empty
// series.
func (m *SeriesSnapshot) Quantile(q float64) (float64, bool) {
	if m == nil {
		return 0, false
	}
	bounds := make([]float64, len(m.Buckets))
	cumulative := make([]float64, len(m.Buckets))
	for i, b := range m.Buckets {
		bounds[i], _ = strconv.ParseFloat(b.Le, 64)
		cumulative[i] = float64(b.Count)
	}
	return HistogramQuantile(q, bounds, cumulative)
}
