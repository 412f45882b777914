package telemetry

import (
	"io"
	"strings"
	"testing"
)

// workload drives a registry through a representative mix of counter,
// gauge and histogram traffic. n scales the volume so two invocations can
// play the roles of two partitions of one larger run.
func workload(r *Registry, n int) {
	c := r.Counter("apks_total", "analysed APKs", "stage", "download")
	g := r.Gauge("inflight", "in-flight items")
	h := r.Histogram("latency_seconds", "per-item latency", []float64{0.1, 0.5, 1, 5})
	for i := 0; i < n; i++ {
		c.Inc()
		g.Set(int64(i % 3))
		h.Observe(0.05 + float64(i%7)*0.2)
	}
	r.Counter("apks_total", "analysed APKs", "stage", "analyze").Add(int64(n / 2))
}

func promText(t *testing.T, s *Snapshot) string {
	t.Helper()
	var sb strings.Builder
	if err := s.WriteProm(&sb); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	return sb.String()
}

func jsonText(t *testing.T, s *Snapshot) string {
	t.Helper()
	var sb strings.Builder
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return sb.String()
}

// TestFederationRendersLikeMetrics pins renderer parity: a registry's
// delta, shipped as JSON, decoded, merged and rendered the way the fleet
// plane does, is byte-identical to what /metrics serves. The inputs
// include a counter past 1e6, which a float64 %g rendering would print as
// 6.507222e+06, and a label value containing a space, which sorts before
// its prefix in rendered-text order but after it in signature order.
func TestFederationRendersLikeMetrics(t *testing.T) {
	r := NewRegistry()
	before := r.Snapshot()
	workload(r, 57)
	r.Counter("snapshot_apps_total", "repository entries", "source", "play store").Add(6507222)
	r.Counter("snapshot_apps_total", "repository entries", "source", "play").Add(3)

	delta, err := DecodeSnapshot([]byte(jsonText(t, r.Snapshot().Sub(before))))
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	merged, err := Merge(delta)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := promText(t, merged), promText(t, r.Snapshot()); got != want {
		t.Errorf("fleet path diverged from /metrics:\n--- /metrics ---\n%s--- fleet ---\n%s", want, got)
	}
	if !strings.Contains(promText(t, merged), `snapshot_apps_total{source="play store"} 6507222`) {
		t.Error("large counter not rendered as an integer")
	}
}

// TestDiffMergePartitionIdentity is the federation arithmetic in
// miniature: splitting one run into two leased stretches, subtracting each
// stretch's start snapshot, and merging the deltas must reproduce the
// whole-run exposition byte-for-byte — histograms included, whose sums
// subtract and add on integer-nanosecond accumulators.
func TestDiffMergePartitionIdentity(t *testing.T) {
	whole := NewRegistry()
	workload(whole, 40)
	workload(whole, 23)

	split := NewRegistry()
	mark0 := split.Snapshot()
	workload(split, 40)
	mark1 := split.Snapshot()
	workload(split, 23)
	mark2 := split.Snapshot()

	merged, err := Merge(mark1.Sub(mark0), mark2.Sub(mark1))
	if err != nil {
		t.Fatal(err)
	}
	// Gauges are last-write-wins in a registry but add under Merge (fleet
	// semantics); compare on the counter and histogram families, which are
	// the federated surface.
	dropGauge := func(s *Snapshot) *Snapshot {
		out := &Snapshot{}
		for _, f := range s.Families {
			if f.Type != "gauge" {
				out.Families = append(out.Families, f)
			}
		}
		return out
	}
	if got, want := promText(t, dropGauge(merged)), promText(t, dropGauge(whole.Snapshot())); got != want {
		t.Errorf("merged deltas diverged from whole run:\n--- whole ---\n%s--- merged ---\n%s", want, got)
	}
}

// TestSnapshotSubDropsNothingNew covers the boundary rules: series absent
// from the base subtract zero, families absent from the minuend are
// dropped.
func TestSnapshotSubDropsNothingNew(t *testing.T) {
	before := NewRegistry()
	before.Counter("old_total", "old").Add(5)
	after := NewRegistry()
	after.Counter("new_total", "new").Add(7)
	delta := after.Snapshot().Sub(before.Snapshot())
	if delta.Family("old_total") != nil {
		t.Error("family absent from after survived the subtraction")
	}
	if got := delta.Family("new_total").Total(); got != 7 {
		t.Errorf("new series delta = %v, want 7", got)
	}
}

// TestSnapshotWithLabelCanonical checks the shard stamp: the injected
// pair renders sorted among existing labels with canonical escaping, and
// histogram buckets keep their le pair.
func TestSnapshotWithLabelCanonical(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c", "zone", `we"ird\z`).Inc()
	r.Histogram("h_seconds", "h", []float64{1}, "stage", "dl").Observe(0.5)
	out := r.Snapshot().WithLabel("shard", "3/4")
	if out.Family("c_total").Series("shard", "3/4", "zone", `we"ird\z`) == nil {
		t.Errorf("stamped counter series missing: %+v", out.Family("c_total").Metrics)
	}
	text := promText(t, out)
	for _, want := range []string{
		`c_total{shard="3/4",zone="we\"ird\\z"} 1`,
		`h_seconds_bucket{le="1",shard="3/4",stage="dl"} 1`,
		`h_seconds_count{shard="3/4",stage="dl"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("stamped exposition missing %s:\n%s", want, text)
		}
	}
}

// TestDecodeSnapshotFailsClosed pins every shape the decoder refuses.
func TestDecodeSnapshotFailsClosed(t *testing.T) {
	hist := func(buckets string) string {
		return `{"families":[{"name":"h","type":"histogram","metrics":[{"count":2,"sum":1,"buckets":[` + buckets + `]}]}]}`
	}
	for name, input := range map[string]string{
		"not json":           `{"families":`,
		"trailing data":      `{"families":[]} {}`,
		"unknown field":      `{"families":[],"extra":1}`,
		"bad name":           `{"families":[{"name":"a b","type":"counter","metrics":[{"value":1}]}]}`,
		"bad label key":      `{"families":[{"name":"a","type":"counter","metrics":[{"labels":{"a-b":"x"},"value":1}]}]}`,
		"separator in value": `{"families":[{"name":"a","type":"counter","metrics":[{"labels":{"k":"x\u0001"},"value":1}]}]}`,
		"unknown type":       `{"families":[{"name":"a","type":"summary","metrics":[]}]}`,
		"counter no value":   `{"families":[{"name":"a","type":"counter","metrics":[{}]}]}`,
		"gauge with count":   `{"families":[{"name":"a","type":"gauge","metrics":[{"value":1,"count":1}]}]}`,
		"duplicate family":   `{"families":[{"name":"a","type":"counter","metrics":[]},{"name":"a","type":"counter","metrics":[]}]}`,
		"duplicate series":   `{"families":[{"name":"a","type":"counter","metrics":[{"labels":{"k":"v"},"value":1},{"labels":{"k":"v"},"value":2}]}]}`,
		"le label":           `{"families":[{"name":"h","type":"histogram","metrics":[{"labels":{"le":"1"},"count":0,"sum":0,"buckets":[{"le":"+Inf","count":0}]}]}]}`,
		"descending bounds":  hist(`{"le":"1","count":1},{"le":"0.5","count":1},{"le":"+Inf","count":2}`),
		"repeated bound":     hist(`{"le":"1","count":1},{"le":"1.0","count":1},{"le":"+Inf","count":2}`),
		"no +Inf":            hist(`{"le":"1","count":1},{"le":"5","count":2}`),
		"bad bound":          hist(`{"le":"x","count":1},{"le":"+Inf","count":2}`),
		"decreasing counts":  hist(`{"le":"1","count":2},{"le":"+Inf","count":1}`),
		"count mismatch":     hist(`{"le":"1","count":1},{"le":"+Inf","count":3}`),
		"no buckets":         hist(``),
		"layout differs": `{"families":[{"name":"h","type":"histogram","metrics":[` +
			`{"labels":{"s":"a"},"count":0,"sum":0,"buckets":[{"le":"1","count":0},{"le":"+Inf","count":0}]},` +
			`{"labels":{"s":"b"},"count":0,"sum":0,"buckets":[{"le":"2","count":0},{"le":"+Inf","count":0}]}]}]}`,
	} {
		if _, err := DecodeSnapshot([]byte(input)); err == nil {
			t.Errorf("%s: DecodeSnapshot accepted %s", name, input)
		}
	}

	// A registry snapshot is accepted as-is, and non-canonical spellings
	// of the same content decode to the same canonical snapshot.
	r := NewRegistry()
	workload(r, 9)
	want := jsonText(t, r.Snapshot())
	got, err := DecodeSnapshot([]byte(want))
	if err != nil {
		t.Fatalf("registry snapshot rejected: %v", err)
	}
	if jsonText(t, got) != want {
		t.Errorf("registry snapshot did not decode to itself:\n%s", jsonText(t, got))
	}
	respelled, err := DecodeSnapshot([]byte(hist(`{"le":"5e-1","count":1},{"le":"Inf","count":2}`)))
	if err != nil {
		t.Fatal(err)
	}
	if b := respelled.Families[0].Metrics[0].Buckets; b[0].Le != "0.5" || b[1].Le != "+Inf" {
		t.Errorf("bounds not respelled canonically: %+v", b)
	}
}

// TestMergeRefusesIncompatibleFamilies covers cross-snapshot conflicts the
// per-snapshot decoder cannot see.
func TestMergeRefusesIncompatibleFamilies(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x", "x").Inc()
	b.Gauge("x", "x").Set(1)
	if _, err := Merge(a.Snapshot(), b.Snapshot()); err == nil {
		t.Error("merged a counter with a gauge")
	}
	c, d := NewRegistry(), NewRegistry()
	c.Histogram("h", "h", []float64{1}).Observe(1)
	d.Histogram("h", "h", []float64{2}).Observe(1)
	if _, err := Merge(c.Snapshot(), d.Snapshot()); err == nil {
		t.Error("merged histograms with different bounds")
	}
}

// FuzzDecodeSnapshot hammers the snapshot decoder — the surface that
// consumes metrics from another process. Invariants: no panic on
// arbitrary input; an accepted snapshot re-encodes to a fixpoint, renders
// without error, and survives the federation operations.
func FuzzDecodeSnapshot(f *testing.F) {
	r := NewRegistry()
	workload(r, 11)
	var sb strings.Builder
	_ = r.Snapshot().WriteJSON(&sb)
	f.Add(sb.String())
	f.Add(`{"families":[{"name":"a_total","type":"counter","help":"counts","metrics":[{"labels":{"x":"1"},"value":4}]}]}`)
	f.Add(`{"families":[{"name":"h","type":"histogram","metrics":[{"count":2,"sum":0.75,"buckets":[{"le":"0.5","count":1},{"le":"+Inf","count":2}]}]}]}`)
	f.Add(`{"families":[{"name":"weird","type":"gauge","metrics":[{"labels":{"a":"quote \" brace } comma ,"},"value":-1}]}]}`)
	f.Add(`{"families":[{"name":"bare","type":"counter","metrics":[{"value":1000}]},{"name":"empty_total","type":"counter","metrics":[]}]}`)
	f.Add(`{"families":[{"name":"broken","type":"counter","metrics":[{"value":1.5}]}]}`)
	f.Fuzz(func(t *testing.T, input string) {
		s, err := DecodeSnapshot([]byte(input))
		if err != nil {
			return
		}
		w1 := jsonText(t, s)
		again, err := DecodeSnapshot([]byte(w1))
		if err != nil {
			t.Fatalf("re-decode of canonical output failed: %v\noutput:\n%s", err, w1)
		}
		if w2 := jsonText(t, again); w1 != w2 {
			t.Fatalf("canonicalisation not a fixpoint:\n--- first ---\n%s--- second ---\n%s", w1, w2)
		}
		if err := s.WriteProm(io.Discard); err != nil {
			t.Fatalf("WriteProm on accepted input: %v", err)
		}
		if _, err := Merge(s, s.WithLabel("shard", "0"), s.Sub(again)); err != nil {
			t.Fatalf("Merge of compatible snapshots: %v", err)
		}
	})
}
