package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests", "code", "200")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("requests_total", "requests", "code", "200"); c2 != c {
		t.Error("same name+labels did not return the same handle")
	}
	if c3 := r.Counter("requests_total", "requests", "code", "500"); c3 == c {
		t.Error("different labels returned the same handle")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}

	h := r.Histogram("latency_seconds", "latency", []float64{0.1, 1}, "stage", "dl")
	h.Observe(0.05)
	h.Observe(0.1) // boundary: le="0.1" bucket
	h.Observe(0.5)
	h.Observe(5)
	if got := h.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if got := h.Sum(); got < 5.64 || got > 5.66 {
		t.Errorf("sum = %v, want ~5.65", got)
	}
	if got := h.counts[0].Load(); got != 2 {
		t.Errorf("bucket[0.1] = %d, want 2 (0.05 and the 0.1 boundary)", got)
	}
	if got := h.counts[2].Load(); got != 1 {
		t.Errorf("bucket[+Inf] = %d, want 1", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var h *Hub
	h.Counter("x", "").Inc()
	h.Gauge("x", "").Set(1)
	h.Histogram("x", "", nil).Observe(1)
	h.Trace("t").Start("s").End()
	if d := h.Timer("a", "b").Elapsed(); d != 0 {
		t.Errorf("nil hub timer = %v", d)
	}
	var c *Counter
	c.Add(1)
	if c.Value() != 0 {
		t.Error("nil counter value")
	}
	var g *Gauge
	g.Add(1)
	var hist *Histogram
	hist.Observe(1)
	var tr *Trace
	tr.Start("x").End()
	var sp *Span
	sp.SetAttr("a", "b")
	sp.End()
	if h.Registry().Snapshot() == nil {
		t.Error("nil registry snapshot is nil")
	}
}

func TestSnapshotCanonicalOrderAndTotals(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last", "b", "2").Add(2)
	r.Counter("zz_total", "last", "a", "1").Add(3)
	r.Counter("aa_total", "first").Add(1)
	snap := r.Snapshot()
	if len(snap.Families) != 2 || snap.Families[0].Name != "aa_total" || snap.Families[1].Name != "zz_total" {
		t.Fatalf("families out of order: %+v", snap.Families)
	}
	zz := snap.Family("zz_total")
	if zz.Total() != 5 {
		t.Errorf("zz total = %d, want 5", zz.Total())
	}
	// Series sorted by label signature: a=1 before b=2.
	if zz.Metrics[0].Labels["a"] != "1" || zz.Metrics[1].Labels["b"] != "2" {
		t.Errorf("series out of order: %+v", zz.Metrics)
	}
	if snap.Family("absent") != nil {
		t.Error("absent family found")
	}
}

func TestJSONSnapshotByteStable(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("c_total", "help", "k", "v").Add(3)
		r.Gauge("g", "help").Set(-2)
		h := r.Histogram("h_seconds", "help", []float64{0.01, 0.1}, "stage", "x")
		h.Observe(0.004)
		h.Observe(0.2)
		return r
	}
	var a, b bytes.Buffer
	if err := build().Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("snapshots differ:\n%s\n----\n%s", a.String(), b.String())
	}
	for _, want := range []string{`"c_total"`, `"value": 3`, `"le": "+Inf"`, `"sum":`} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("snapshot missing %s:\n%s", want, a.String())
		}
	}
}

// TestPromExpositionRoundTrips renders a registry as Prometheus text and
// pins every line: HELP/TYPE headers, escaped label values, cumulative
// histogram buckets, and the sum and count — the exposition contract a
// scraper relies on.
func TestPromExpositionRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "requests served", "code", "200", "path", `with"quote`).Add(12)
	r.Gauge("inflight", "in-flight ops").Set(3)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1}, "stage", "dl")
	h.Observe(0.05)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP inflight in-flight ops
# TYPE inflight gauge
inflight 3
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1",stage="dl"} 1
lat_seconds_bucket{le="1",stage="dl"} 1
lat_seconds_bucket{le="+Inf",stage="dl"} 2
lat_seconds_sum{stage="dl"} 2.05
lat_seconds_count{stage="dl"} 2
# HELP req_total requests served
# TYPE req_total counter
req_total{code="200",path="with\"quote"} 12
`
	if buf.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestHubTimerSeededDeterministic(t *testing.T) {
	h1 := New(Options{Timing: SeededTiming{Seed: 9}})
	h2 := New(Options{Timing: SeededTiming{Seed: 9}})
	d1 := h1.Timer("pkg.a", "download").Elapsed()
	d2 := h2.Timer("pkg.a", "download").Elapsed()
	if d1 != d2 {
		t.Errorf("same identity, different durations: %v vs %v", d1, d2)
	}
	if d1 < 100*time.Microsecond || d1 >= 250*time.Millisecond {
		t.Errorf("duration %v outside [100µs, 250ms)", d1)
	}
	if other := h1.Timer("pkg.b", "download").Elapsed(); other == d1 {
		t.Errorf("different scopes hashed to the same duration %v", d1)
	}
	if diff := New(Options{Timing: SeededTiming{Seed: 10}}).Timer("pkg.a", "download").Elapsed(); diff == d1 {
		t.Errorf("different seeds hashed to the same duration %v", d1)
	}
}

func TestRealTimingMeasuresWallClock(t *testing.T) {
	h := New(Options{})
	timer := h.Timer("x", "y")
	time.Sleep(2 * time.Millisecond)
	if d := timer.Elapsed(); d < time.Millisecond {
		t.Errorf("elapsed %v, want >= 1ms", d)
	}
}

// TestRegistryConcurrentUse hammers one registry from many goroutines —
// meaningful under -race, which CI runs for this package.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c_total", "h", "w", string(rune('a'+w%4))).Inc()
				r.Gauge("g", "h").Add(1)
				r.Histogram("h_seconds", "h", nil, "w", string(rune('a'+w%2))).Observe(float64(i) / 100)
				if i%100 == 0 {
					r.Snapshot()
					var buf bytes.Buffer
					r.Snapshot().WriteProm(&buf)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Snapshot().Family("c_total").Total(); got != 8*500 {
		t.Errorf("c_total = %d, want %d", got, 8*500)
	}
}
