package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time, canonically ordered view of a registry —
// the unit the -metrics-out flag persists and the smoke jobs assert over.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family in a Snapshot.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Type    string           `json:"type"`
	Help    string           `json:"help,omitempty"`
	Metrics []SeriesSnapshot `json:"metrics"`
}

// SeriesSnapshot is one labeled series. Value is set for counters and
// gauges; Count, Sum and Buckets for histograms.
type SeriesSnapshot struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *int64            `json:"value,omitempty"`
	Count   *int64            `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot  `json:"buckets,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket; Le is the upper
// bound formatted as Prometheus would ("+Inf" for the last).
type BucketSnapshot struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// Family returns the named family, or nil.
func (s *Snapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Total sums a family's counter/gauge values, or its histogram counts,
// across all series — the "is this family non-zero" smoke check.
func (f *FamilySnapshot) Total() int64 {
	if f == nil {
		return 0
	}
	var total int64
	for _, m := range f.Metrics {
		if m.Value != nil {
			total += *m.Value
		}
		if m.Count != nil {
			total += *m.Count
		}
	}
	return total
}

// Snapshot captures the registry in canonical order. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{Families: []FamilySnapshot{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Type: f.kind.String(), Help: f.help, Metrics: []SeriesSnapshot{}}
		r.mu.Lock()
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		series := make([]any, len(sigs))
		for i, sig := range sigs {
			series[i] = f.series[sig]
		}
		r.mu.Unlock()
		for i, sig := range sigs {
			ss := SeriesSnapshot{}
			if pairs := parseSignature(sig); len(pairs) > 0 {
				ss.Labels = make(map[string]string, len(pairs))
				for _, p := range pairs {
					ss.Labels[p[0]] = p[1]
				}
			}
			switch m := series[i].(type) {
			case *Counter:
				v := m.Value()
				ss.Value = &v
			case *Gauge:
				v := m.Value()
				ss.Value = &v
			case *Histogram:
				count := m.Count()
				sum := m.Sum()
				ss.Count = &count
				ss.Sum = &sum
				cum := int64(0)
				for bi := range m.counts {
					cum += m.counts[bi].Load()
					le := "+Inf"
					if bi < len(m.bounds) {
						le = formatFloat(m.bounds[bi])
					}
					ss.Buckets = append(ss.Buckets, BucketSnapshot{Le: le, Count: cum})
				}
			}
			fs.Metrics = append(fs.Metrics, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// WriteJSON writes the snapshot as canonical JSON: two-space indented,
// keys in struct order, map keys sorted by encoding/json — byte-stable for
// equal metric state.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteProm writes the snapshot in the Prometheus text exposition format
// (version 0.0.4): HELP/TYPE headers, one line per series, in the
// snapshot's family and series order — canonical for every snapshot the
// registry, DecodeSnapshot or the federation operations produce. It is
// the one renderer behind /metrics and the fleet's /fleet/metrics.
func (s *Snapshot) WriteProm(w io.Writer) error {
	for _, f := range s.Families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, m := range f.Metrics {
			switch f.Type {
			case "counter", "gauge":
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.Name, promLabels(m.Labels, "", ""), *m.Value); err != nil {
					return err
				}
			case "histogram":
				for _, b := range m.Buckets {
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, promLabels(m.Labels, "le", b.Le), b.Count); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, promLabels(m.Labels, "", ""), formatFloat(*m.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, promLabels(m.Labels, "", ""), *m.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// promLabels renders a label set (plus an optional extra pair, used for
// histogram "le") in canonical sorted order.
func promLabels(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels)+1)
	for k := range labels {
		keys = append(keys, k)
	}
	if extraKey != "" {
		keys = append(keys, extraKey)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		v := labels[k]
		if k == extraKey {
			v = extraVal
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(v))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
