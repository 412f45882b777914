package serving

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/measure"
	"repro/internal/telemetry"
)

// gateSink blocks Accept until released, then forwards to a measure.Server —
// the tool for holding batches "in flight" inside the drain workers.
type gateSink struct {
	gate chan struct{}
	agg  *measure.Server
}

func newGateSink() *gateSink {
	return &gateSink{gate: make(chan struct{}), agg: measure.NewServer()}
}

func (g *gateSink) Accept(app string, batch []measure.Trace) error {
	<-g.gate
	return g.agg.Accept(app, batch)
}

func postBatch(t *testing.T, h http.Handler, app string, batch []measure.Trace) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/collect", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(android.XRequestedWithHeader, app)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func beacons(n int, app string) []measure.Trace {
	out := make([]measure.Trace, n)
	for i := range out {
		out[i] = measure.Trace{App: app, Interface: "Document", Method: fmt.Sprintf("method%d", i)}
	}
	return out
}

func TestIngestHappyPath(t *testing.T) {
	agg := measure.NewServer()
	svc := NewService(Config{Sink: agg})
	defer svc.Close()
	h := svc.Handler()

	if rec := postBatch(t, h, "com.a", beacons(3, "com.a")); rec.Code != http.StatusNoContent {
		t.Fatalf("POST = %d, want 204: %s", rec.Code, rec.Body)
	}
	// GET single-beacon channel rides the same hardened path.
	req := httptest.NewRequest(http.MethodGet, "/collect?iface=Navigator&method=sendBeacon", nil)
	req.Header.Set(android.XRequestedWithHeader, "com.a")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("GET = %d, want 204", rec.Code)
	}
	svc.Flush()
	if got := agg.Beacons(); got != 4 {
		t.Errorf("aggregated beacons = %d, want 4", got)
	}
	st := svc.Stats()
	if st.IngestRequests != 2 || st.IngestBeacons != 4 || st.ShedTotal() != 0 || st.FlushedBatches != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQueueFullShedsWith429AndRetryAfter(t *testing.T) {
	gs := newGateSink()
	svc := NewService(Config{Sink: gs, QueueDepth: 2, Workers: 1, RetryAfter: 2 * time.Second})
	defer func() { close(gs.gate); svc.Close() }()
	h := svc.Handler()

	// Worker pulls one job and blocks in the sink; two more fill the queue.
	sent, accepted, shed := 0, 0, 0
	deadline := time.Now().Add(5 * time.Second)
	for shed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		rec := postBatch(t, h, "com.a", beacons(1, "com.a"))
		sent++
		switch rec.Code {
		case http.StatusNoContent:
			accepted++
		case http.StatusTooManyRequests:
			shed++
			if got := rec.Header().Get("Retry-After"); got != "2" {
				t.Errorf("Retry-After = %q, want \"2\"", got)
			}
		default:
			t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body)
		}
	}
	st := svc.Stats()
	if int(st.IngestRequests)+int(st.ShedTotal()) != sent {
		t.Errorf("accounting leak: ingest %d + shed %d != sent %d", st.IngestRequests, st.ShedTotal(), sent)
	}
	if st.Shed[ShedQueueFull] != int64(shed) {
		t.Errorf("shed[queue_full] = %d, want %d", st.Shed[ShedQueueFull], shed)
	}
	if accepted == 0 {
		t.Error("nothing accepted before the queue filled")
	}
}

func TestMalformedInputRejectedNotShed(t *testing.T) {
	svc := NewService(Config{Sink: measure.NewServer(), MaxBodyBytes: 1 << 10})
	defer svc.Close()
	h := svc.Handler()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"garbage", "{nope", http.StatusBadRequest},
		{"empty beacon", `[{"app":"com.a"}]`, http.StatusBadRequest},
		{"oversized", `[{"interface":"I","method":"` + strings.Repeat("m", 2<<10) + `"}]`, http.StatusRequestEntityTooLarge},
		{"trailing bracket", `[]]`, http.StatusBadRequest},
		{"trailing brace", `[{"interface":"a","method":"b"}]}`, http.StatusBadRequest},
		{"trailing brackets", `[{"interface":"a"}]]]]`, http.StatusBadRequest},
		{"null", `null`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, "/collect", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
	st := svc.Stats()
	if st.Rejected != int64(len(cases)) || st.ShedTotal() != 0 || st.IngestRequests != 0 {
		t.Errorf("stats = %+v; want %d rejected, 0 shed, 0 ingested", st, len(cases))
	}
}

func TestAdmissionLimiterRefusesExcessConcurrency(t *testing.T) {
	svc := NewService(Config{Sink: measure.NewServer(), MaxConcurrent: 1})
	defer svc.Close()
	h := svc.Handler()

	// Park one request inside the handler by stalling its body mid-decode.
	pr, pw := io.Pipe()
	parked := make(chan struct{})
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/collect", pr)
		req.Header.Set(android.XRequestedWithHeader, "com.slow")
		h.ServeHTTP(httptest.NewRecorder(), req)
		close(parked)
	}()
	// Wait until the parked request holds the only admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for svc.limiter.tryAcquire() {
		svc.limiter.release()
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the limiter")
		}
		time.Sleep(time.Millisecond)
	}
	rec := postBatch(t, h, "com.b", beacons(1, "com.b"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-admission POST = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("admission shed missing Retry-After")
	}
	pw.Write([]byte(`[{"interface":"I","method":"m"}]`))
	pw.Close()
	<-parked
	st := svc.Stats()
	if st.Shed[ShedAdmission] != 1 || st.IngestRequests != 1 {
		t.Errorf("stats = %+v; want 1 admission shed, 1 ingested", st)
	}
}

func TestTelemetryCountersReconcileWithStats(t *testing.T) {
	hub := telemetry.New(telemetry.Options{Timing: telemetry.SeededTiming{Seed: 9}})
	gs := newGateSink()
	svc := NewService(Config{Sink: gs, QueueDepth: 1, Workers: 1, Hub: hub})
	defer func() { close(gs.gate); svc.Close() }()
	h := svc.Handler()

	sent := 0
	for i := 0; i < 40; i++ {
		postBatch(t, h, fmt.Sprintf("com.app%d", i%3), beacons(2, ""))
		sent++
	}
	st := svc.Stats()
	var ingest, shedTotal int64
	for i := 0; i < 3; i++ {
		app := fmt.Sprintf("com.app%d", i)
		ingest += hub.Counter("serving_ingest_total", "", "tenant", app).Value()
		for _, reason := range shedReasons {
			shedTotal += hub.Counter("serving_shed_total", "", "tenant", app, "reason", reason).Value()
		}
	}
	if ingest != st.IngestRequests {
		t.Errorf("serving_ingest_total = %d, stats say %d", ingest, st.IngestRequests)
	}
	if shedTotal != st.ShedTotal() {
		t.Errorf("serving_shed_total = %d, stats say %d", shedTotal, st.ShedTotal())
	}
	if ingest+shedTotal != int64(sent) {
		t.Errorf("ingest %d + shed %d != sent %d: silent drop", ingest, shedTotal, sent)
	}
}

func TestConcurrentAggregationMatchesSequential(t *testing.T) {
	run := func(workers, clients int) map[measure.Trace]int64 {
		agg := measure.NewServer()
		svc := NewService(Config{Sink: agg, QueueDepth: 4096, Workers: workers})
		h := svc.Handler()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c) + 7))
				for i := 0; i < 50; i++ {
					app := fmt.Sprintf("com.app%d", rng.Intn(4))
					batch := []measure.Trace{{
						Interface: fmt.Sprintf("Iface%d", rng.Intn(3)),
						Method:    fmt.Sprintf("m%d", rng.Intn(5)),
					}}
					if rec := postBatch(t, h, app, batch); rec.Code != http.StatusNoContent {
						t.Errorf("POST = %d", rec.Code)
					}
				}
			}(c)
		}
		wg.Wait()
		if err := svc.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		return agg.Counts()
	}
	seq := run(1, 1)
	// Same seeded traffic, one client: concurrency only in the drain pool.
	conc := run(4, 1)
	if len(seq) == 0 || !reflect.DeepEqual(seq, conc) {
		t.Errorf("concurrent drain diverged from sequential:\nseq  %+v\nconc %+v", seq, conc)
	}
}

func TestPagesServedAroundCollect(t *testing.T) {
	ms := measure.NewServer()
	svc := NewService(Config{Sink: ms, Pages: ms.Handler()})
	defer svc.Close()
	h := svc.Handler()

	req := httptest.NewRequest(http.MethodGet, "/", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "HTML5 Test Page") {
		t.Errorf("GET / = %d, body %q", rec.Code, rec.Body.String()[:60])
	}
	req = httptest.NewRequest(http.MethodGet, "/trace.js", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "__traceInstalled") {
		t.Errorf("GET /trace.js = %d", rec.Code)
	}
	// /collect is intercepted by the hardened path, not measure's own mux.
	if rec := postBatch(t, h, "com.a", beacons(1, "com.a")); rec.Code != http.StatusNoContent {
		t.Fatalf("POST /collect = %d", rec.Code)
	}
	svc.Flush()
	if got := ms.ForApp("com.a"); len(got) != 1 {
		t.Errorf("measure sink traces = %+v", got)
	}
}
