package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Snapshot arithmetic for the fleet plane. Workers ship the delta of two
// registry snapshots with every accepted partition; the coordinator
// merges those deltas into the fleet rollup and stamps each one with a
// shard label. Snapshots stay the one model end to end — WriteProm
// renders them the way /metrics renders a live registry.
//
// Determinism contract: counters, gauges and bucket counts are integers,
// and histogram sums were accumulated in integer nanoseconds and exposed
// as nanos/1e9. sumNanos recovers the exact integer, so subtraction and
// addition happen on integers and re-expose the same way — a rollup of N
// per-shard deltas is byte-identical however the work was partitioned.

// sumNanos recovers the integer-nanosecond accumulator behind an exposed
// histogram sum. Histogram.Observe stores math.Round(v*1e9) and exposes
// nanos/1e9, so rounding the product recovers the integer exactly for any
// realistic magnitude (absolute error stays below 0.5 up to ~5e15 nanos ≈
// 57 days).
func sumNanos(sum float64) int64 { return int64(math.Round(sum * 1e9)) }

func nanosToSum(n int64) float64 { return float64(n) / 1e9 }

// mapSignature is labelSignature for a snapshot's label map.
func mapSignature(labels map[string]string) string { return labelSignature(labelPairs(labels)) }

func labelPairs(labels map[string]string) []string {
	pairs := make([]string, 0, 2*len(labels))
	for k, v := range labels {
		pairs = append(pairs, k, v)
	}
	return pairs
}

// Series returns the family's series carrying exactly the given label
// key/value pairs, or nil.
func (f *FamilySnapshot) Series(labels ...string) *SeriesSnapshot {
	if f == nil {
		return nil
	}
	sig := labelSignature(labels)
	for i := range f.Metrics {
		if mapSignature(f.Metrics[i].Labels) == sig {
			return &f.Metrics[i]
		}
	}
	return nil
}

func (m SeriesSnapshot) clone() SeriesSnapshot {
	c := SeriesSnapshot{Buckets: append([]BucketSnapshot(nil), m.Buckets...)}
	if m.Labels != nil {
		c.Labels = make(map[string]string, len(m.Labels))
		for k, v := range m.Labels {
			c.Labels[k] = v
		}
	}
	if m.Value != nil {
		v := *m.Value
		c.Value = &v
	}
	if m.Count != nil {
		v := *m.Count
		c.Count = &v
	}
	if m.Sum != nil {
		v := *m.Sum
		c.Sum = &v
	}
	return c
}

// add folds sign·o into m: values, counts and cumulative bucket counts
// add, sums add on their integer-nanosecond accumulators. Buckets pair up
// by bound; a bound o lacks adds zero.
func (m *SeriesSnapshot) add(o *SeriesSnapshot, sign int64) {
	if m.Value != nil && o.Value != nil {
		*m.Value += sign * *o.Value
	}
	if m.Count != nil && o.Count != nil {
		*m.Count += sign * *o.Count
	}
	if m.Sum != nil && o.Sum != nil {
		*m.Sum = nanosToSum(sumNanos(*m.Sum) + sign*sumNanos(*o.Sum))
	}
	for i := range m.Buckets {
		if i < len(o.Buckets) && o.Buckets[i].Le == m.Buckets[i].Le {
			m.Buckets[i].Count += sign * o.Buckets[i].Count
		}
	}
}

func sameLayout(a, b []BucketSnapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Le != b[i].Le {
			return false
		}
	}
	return true
}

// Sub returns s − base, series-wise: the delta one bounded stretch of work
// (a leased partition) added to a live registry. Families and series
// absent from base subtract zero; those absent from s are dropped (a
// registry never loses series).
func (s *Snapshot) Sub(base *Snapshot) *Snapshot {
	return s.mapSeries(func(f *FamilySnapshot, m *SeriesSnapshot) {
		if b := base.Family(f.Name); b != nil && b.Type == f.Type {
			if bm := b.Series(labelPairs(m.Labels)...); bm != nil {
				m.add(bm, -1)
			}
		}
	})
}

// mapSeries returns a deep copy of s with fn applied to every series.
func (s *Snapshot) mapSeries(fn func(f *FamilySnapshot, m *SeriesSnapshot)) *Snapshot {
	out := &Snapshot{Families: make([]FamilySnapshot, len(s.Families))}
	for fi, f := range s.Families {
		of := FamilySnapshot{Name: f.Name, Type: f.Type, Help: f.Help, Metrics: make([]SeriesSnapshot, len(f.Metrics))}
		for mi, m := range f.Metrics {
			of.Metrics[mi] = m.clone()
			fn(&f, &of.Metrics[mi])
		}
		out.Families[fi] = of
	}
	return out
}

// Merge adds snapshots series-wise — the fleet semantics, where every
// shard's traffic is real traffic: counters, gauges, counts and buckets
// add, histogram sums add on integer nanoseconds. Type and Help stick to
// a family's first appearance. The result is in canonical order. Merging
// a family under two types, or histograms with different bucket bounds,
// is an error.
func Merge(snaps ...*Snapshot) (*Snapshot, error) {
	out := &Snapshot{Families: []FamilySnapshot{}}
	famAt := make(map[string]int)
	seriesAt := make(map[string]map[string]int)
	for _, s := range snaps {
		for _, sf := range s.Families {
			fi, ok := famAt[sf.Name]
			if !ok {
				fi = len(out.Families)
				famAt[sf.Name] = fi
				seriesAt[sf.Name] = make(map[string]int)
				out.Families = append(out.Families, FamilySnapshot{Name: sf.Name, Type: sf.Type, Help: sf.Help})
			}
			df := &out.Families[fi]
			if df.Type != sf.Type {
				return nil, fmt.Errorf("telemetry: merge %s: type %s into %s", sf.Name, sf.Type, df.Type)
			}
			for _, m := range sf.Metrics {
				if len(df.Metrics) > 0 && !sameLayout(df.Metrics[0].Buckets, m.Buckets) {
					return nil, fmt.Errorf("telemetry: merge %s: bucket bounds differ", sf.Name)
				}
				sig := mapSignature(m.Labels)
				if mi, ok := seriesAt[sf.Name][sig]; ok {
					df.Metrics[mi].add(&m, 1)
					continue
				}
				seriesAt[sf.Name][sig] = len(df.Metrics)
				df.Metrics = append(df.Metrics, m.clone())
			}
		}
	}
	out.canonicalize()
	return out, nil
}

// WithLabel returns a copy of s with key=val set on every series — how
// the fleet view stamps each partition's delta with shard="<index>".
func (s *Snapshot) WithLabel(key, val string) *Snapshot {
	out := s.mapSeries(func(_ *FamilySnapshot, m *SeriesSnapshot) {
		if m.Labels == nil {
			m.Labels = make(map[string]string, 1)
		}
		m.Labels[key] = val
	})
	out.canonicalize()
	return out
}

// canonicalize orders families by name and series by label signature —
// the order Registry.Snapshot produces.
func (s *Snapshot) canonicalize() {
	if s.Families == nil {
		s.Families = []FamilySnapshot{}
	}
	sort.Slice(s.Families, func(i, j int) bool { return s.Families[i].Name < s.Families[j].Name })
	for fi := range s.Families {
		ms := s.Families[fi].Metrics
		if ms == nil {
			s.Families[fi].Metrics = []SeriesSnapshot{}
		}
		sort.Slice(ms, func(i, j int) bool { return mapSignature(ms[i].Labels) < mapSignature(ms[j].Labels) })
	}
}

// DecodeSnapshot decodes a snapshot that crossed a process boundary — a
// worker's partition delta, final flush or /metrics.json scrape — and
// fails closed on anything the registry could not have produced: names
// or label keys outside the Prometheus charset, unknown types, counters
// and gauges without exactly one value, histograms whose bounds are not
// strictly ascending to +Inf, whose cumulative counts decrease or miss
// the total, or whose bounds differ within a family, and duplicate
// families or label sets. Accepted snapshots come back in canonical
// order with canonically spelled bounds, so they render like a live
// registry.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("telemetry: snapshot: %w", err)
	}
	if dec.More() {
		return nil, errors.New("telemetry: snapshot: trailing data")
	}
	seen := make(map[string]bool, len(s.Families))
	for fi := range s.Families {
		f := &s.Families[fi]
		if !validName(f.Name, true) {
			return nil, fmt.Errorf("telemetry: snapshot: bad metric name %q", f.Name)
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("telemetry: snapshot: duplicate family %s", f.Name)
		}
		seen[f.Name] = true
		if err := validateFamily(f); err != nil {
			return nil, fmt.Errorf("telemetry: snapshot: %s: %w", f.Name, err)
		}
	}
	s.canonicalize()
	return &s, nil
}

func validateFamily(f *FamilySnapshot) error {
	if f.Type != "counter" && f.Type != "gauge" && f.Type != "histogram" {
		return fmt.Errorf("unknown type %q", f.Type)
	}
	sigs := make(map[string]bool, len(f.Metrics))
	for mi := range f.Metrics {
		m := &f.Metrics[mi]
		for k, v := range m.Labels {
			// The separators would make two label sets share a signature.
			if !validName(k, false) || (k == "le" && f.Type == "histogram") || strings.ContainsAny(v, "\x01\x02") {
				return fmt.Errorf("bad label %q=%q", k, v)
			}
		}
		sig := mapSignature(m.Labels)
		if sigs[sig] {
			return fmt.Errorf("duplicate label set %v", m.Labels)
		}
		sigs[sig] = true
		if f.Type != "histogram" {
			if m.Value == nil || m.Count != nil || m.Sum != nil || m.Buckets != nil {
				return errors.New("a counter or gauge series carries exactly one value")
			}
			continue
		}
		if err := validateHistogram(m); err != nil {
			return err
		}
		if !sameLayout(f.Metrics[0].Buckets, m.Buckets) {
			return errors.New("bucket bounds differ within the family")
		}
	}
	return nil
}

// validateHistogram checks one histogram series and respells its bounds
// the way the registry formats them.
func validateHistogram(m *SeriesSnapshot) error {
	if m.Value != nil || m.Count == nil || m.Sum == nil || len(m.Buckets) == 0 {
		return errors.New("a histogram series carries count, sum and buckets only")
	}
	prev := math.Inf(-1)
	for i := range m.Buckets {
		b := &m.Buckets[i]
		le, err := strconv.ParseFloat(b.Le, 64)
		if err != nil || (i > 0 && !(le > prev)) {
			return fmt.Errorf("bucket bounds not strictly ascending at le=%q", b.Le)
		}
		if i > 0 && b.Count < m.Buckets[i-1].Count {
			return fmt.Errorf("cumulative count decreases at le=%q", b.Le)
		}
		b.Le = formatFloat(le)
		prev = le
	}
	if !math.IsInf(prev, 1) {
		return errors.New(`last bucket is not le="+Inf"`)
	}
	if m.Buckets[len(m.Buckets)-1].Count != *m.Count {
		return errors.New("+Inf bucket does not match count")
	}
	return nil
}

// validName enforces the Prometheus charset: [a-zA-Z_:][a-zA-Z0-9_:]* for
// metric names, the same without ':' for label names.
func validName(s string, metric bool) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':' && metric:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
