package serving

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/measure"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

// startPlane boots a full serving plane on a loopback socket and returns
// the service, its sink and the collect URL.
func startPlane(t *testing.T, cfg Config) (*Service, *measure.Server, string) {
	t.Helper()
	agg := measure.NewServer()
	cfg.Sink = agg
	svc := NewService(cfg)
	ep, err := Listen("127.0.0.1:0", svc.Handler())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ep.Close()
		svc.Close()
	})
	return svc, agg, "http://" + ep.Addr + "/collect"
}

func TestLoadRunLosslessUnderComfortableCapacity(t *testing.T) {
	svc, agg, url := startPlane(t, Config{QueueDepth: 1024, Workers: 2, MaxConcurrent: 128})
	res, err := RunLoad(context.Background(), LoadConfig{
		URL: url, Users: 8, BatchesPerUser: 10, BeaconsPerBatch: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 80 || res.Accepted != 80 || res.Shed != 0 || res.Errored != 0 {
		t.Fatalf("outcomes = %+v; want all 80 accepted", res)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := res.Reconcile(svc.Stats()); err != nil {
		t.Fatal(err)
	}
	if got := agg.Beacons(); got != res.BeaconsAccepted {
		t.Errorf("aggregated %d beacons, client counted %d", got, res.BeaconsAccepted)
	}
	if res.P99 <= 0 || res.P50 > res.P99 {
		t.Errorf("latency profile broken: p50 %v p99 %v", res.P50, res.P99)
	}
}

// TestLoadRunLosslessUnderSaturation is the overload acceptance test:
// a tiny queue, one slow worker and starved quotas force heavy shedding,
// and every single batch must still be accounted for — accepted or
// answered 429/503 — with the serving_ingest_total/serving_shed_total
// telemetry counters reconciling exactly against client observations.
func TestLoadRunLosslessUnderSaturation(t *testing.T) {
	hub := telemetry.New(telemetry.Options{Timing: telemetry.SeededTiming{Seed: 3}})
	svc, _, url := startPlane(t, Config{
		QueueDepth: 1, Workers: 1, MaxConcurrent: 4,
		TenantRate: 40, TenantBurst: 10,
		RetryAfter: time.Second,
		Hub:        hub,
	})
	res, err := RunLoad(context.Background(), LoadConfig{
		URL: url, Users: 16, BatchesPerUser: 8, BeaconsPerBatch: 6, Seed: 2,
		MaxAttempts: 2, MaxDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("saturation run shed nothing; the test exerted no pressure")
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if err := res.Reconcile(st); err != nil {
		t.Fatal(err)
	}
	// The telemetry counters carry the same truth as the Stats atomics.
	var ingest, shedTotal int64
	svc.tenants.Range(func(k, v any) bool {
		tc := v.(*tenantCounters)
		ingest += tc.ingest.Value()
		for _, c := range tc.shed {
			shedTotal += c.Value()
		}
		return true
	})
	if ingest != st.IngestRequests || shedTotal != st.ShedTotal() {
		t.Errorf("telemetry says ingest %d shed %d, stats say %d / %d",
			ingest, shedTotal, st.IngestRequests, st.ShedTotal())
	}
	if ingest+shedTotal != res.Attempts-res.BreakerOpens {
		t.Errorf("server saw %d requests, client made %d attempts (%d breaker-rejected): silent drop",
			ingest+shedTotal, res.Attempts, res.BreakerOpens)
	}
}

// TestQuotaIsolationUnderFlood is the per-tenant isolation acceptance
// test: one flooding tenant saturates its own quota while a quiet tenant
// on the same plane keeps its service level — zero sheds and a p99 within
// budget.
func TestQuotaIsolationUnderFlood(t *testing.T) {
	svc, _, url := startPlane(t, Config{
		QueueDepth: 512, Workers: 2, MaxConcurrent: 64,
		TenantRate: 50, TenantBurst: 100,
	})

	floodDone := make(chan *LoadResult, 1)
	go func() {
		// Many users sharing ONE tenant app, pushing far beyond 50/s.
		res, _ := RunLoad(context.Background(), LoadConfig{
			URL: url, Users: 8, Apps: 1, BatchesPerUser: 30, BeaconsPerBatch: 8,
			Seed: 5, MaxAttempts: 1,
		})
		floodDone <- res
	}()

	// The quiet tenant sends 30 single-beacon requests concurrently with
	// the flood — inside its own 100-beacon burst, so its bucket never
	// empties no matter what the flooder does.
	client := &http.Client{}
	var quietShed, quietSent int
	var quietLat []time.Duration
	for i := 0; i < 30; i++ {
		req, _ := http.NewRequest(http.MethodPost, url,
			strings.NewReader(`[{"interface":"Document","method":"createElement"}]`))
		req.Header.Set(android.XRequestedWithHeader, "com.quiet")
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		quietLat = append(quietLat, time.Since(t0))
		resp.Body.Close()
		quietSent++
		if resp.StatusCode != http.StatusNoContent {
			quietShed++
		}
		time.Sleep(2 * time.Millisecond)
	}
	flood := <-floodDone

	if flood.Shed == 0 {
		t.Fatal("flooding tenant was never shed; quota exerted no pressure")
	}
	if quietShed != 0 {
		t.Errorf("quiet tenant shed %d/%d requests despite staying under quota", quietShed, quietSent)
	}
	_, p99, _ := percentiles(quietLat)
	if budget := 250 * time.Millisecond; p99 > budget {
		t.Errorf("quiet tenant p99 = %v, beyond the %v budget", p99, budget)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureReportGoesThroughServingPlane(t *testing.T) {
	// End-to-end: the measure client helper, with a retry policy, against
	// the hardened plane under a tiny queue — it must succeed via retries.
	ms := measure.NewServer()
	svc := NewService(Config{Sink: ms, QueueDepth: 64, Pages: ms.Handler()})
	ep, err := Listen("127.0.0.1:0", svc.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ep.Close(); svc.Close() }()

	policy := &retry.Policy{MaxAttempts: 5, Seed: 2, MaxDelay: 10 * time.Millisecond}
	err = measure.ReportAPICalls(context.Background(), &http.Client{}, policy,
		"http://"+ep.Addr+"/collect", "com.e2e", nil)
	if err != nil {
		t.Fatalf("empty report: %v", err)
	}
	svc.Flush()
}
