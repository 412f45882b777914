package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/measure"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

// LoadConfig parameterises RunLoad, the closed-loop load generator: each
// simulated user posts seeded crawl-shaped beacon batches to the collect
// endpoint and does not send the next until the previous reached a
// terminal outcome (accepted, shed, or errored) — the closed loop that
// makes backpressure visible as latency instead of unbounded queueing.
type LoadConfig struct {
	// URL is the collect endpoint (http://host:port/collect).
	URL string
	// Users is the number of concurrent simulated users (>= 1).
	Users int
	// BatchesPerUser is how many batches each user pushes; <= 0 means 10.
	BatchesPerUser int
	// BeaconsPerBatch sizes batches (jittered ±50% per batch); <= 0 means 5.
	BeaconsPerBatch int
	// Apps is the tenant pool size users are assigned to round-robin;
	// <= 0 means min(Users, 8).
	Apps int
	// Seed drives batch shapes and the retry jitter.
	Seed int64
	// MaxAttempts bounds retries per batch; <= 0 means 4.
	MaxAttempts int
	// MaxDelay clamps backoff and server-advised Retry-After waits so a
	// run finishes; <= 0 means 50ms.
	MaxDelay time.Duration
}

// LoadResult is one closed-loop run's accounting and latency profile.
// Batch outcomes are terminal (after retries); response counts are
// per-attempt and reconcile exactly against the server's Stats.
type LoadResult struct {
	// Terminal batch outcomes: Sent == Accepted + Shed + Errored.
	Sent, Accepted, Shed, Errored int64

	// Per-attempt response accounting.
	Attempts, OKResponses, ShedResponses int64

	// Beacons inside the accepted batches.
	BeaconsAccepted int64

	P50, P99 time.Duration
	Wall     time.Duration
}

// crawl-shaped beacon population: the interfaces and methods the
// controlled page's Trace.js and the element-level batch upload actually
// emit during IAB probes, weighted toward the document APIs injected code
// leans on (paper Table 9).
var loadBeaconPool = []measure.Trace{
	{Interface: "Document", Method: "getElementById"},
	{Interface: "Document", Method: "getElementById"},
	{Interface: "Document", Method: "createElement"},
	{Interface: "Document", Method: "createElement"},
	{Interface: "Document", Method: "querySelectorAll"},
	{Interface: "Document", Method: "querySelector"},
	{Interface: "Document", Method: "getElementsByTagName"},
	{Interface: "Document", Method: "addEventListener"},
	{Interface: "Navigator", Method: "sendBeacon"},
	{Interface: "HTMLInputElement", Method: "setAttribute"},
	{Interface: "HTMLMetaElement", Method: "getAttribute"},
	{Interface: "HTMLFormElement", Method: "addEventListener"},
}

// RunLoad replays closed-loop beacon traffic against cfg.URL and returns
// the run's accounting. Every batch reaches a terminal outcome; nothing
// is silently dropped on the client side either.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadResult, error) {
	if cfg.Users <= 0 {
		cfg.Users = 1
	}
	if cfg.BatchesPerUser <= 0 {
		cfg.BatchesPerUser = 10
	}
	if cfg.BeaconsPerBatch <= 0 {
		cfg.BeaconsPerBatch = 5
	}
	if cfg.Apps <= 0 {
		cfg.Apps = min(cfg.Users, 8)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 50 * time.Millisecond
	}
	tr := &http.Transport{MaxIdleConns: cfg.Users, MaxIdleConnsPerHost: cfg.Users}
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	res := &LoadResult{}
	var (
		sent, accepted, shed, errored atomic.Int64
		okResp, shedResp              atomic.Int64
		beaconsAccepted               atomic.Int64
		latMu                         sync.Mutex
		latencies                     []time.Duration
	)
	metrics := &retry.Metrics{}

	start := time.Now()
	var wg sync.WaitGroup
	for u := 0; u < cfg.Users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			app := fmt.Sprintf("com.load.app%02d", u%cfg.Apps)
			rng := rand.New(rand.NewSource(cfg.Seed*1315423911 + int64(u)))
			policy := &retry.Policy{
				MaxAttempts: cfg.MaxAttempts,
				BaseDelay:   time.Millisecond,
				MaxDelay:    cfg.MaxDelay,
				Seed:        cfg.Seed + int64(u) + 1,
				Metrics:     metrics,
			}
			userLat := make([]time.Duration, 0, cfg.BatchesPerUser*2)

			for b := 0; b < cfg.BatchesPerUser; b++ {
				if ctx.Err() != nil {
					return
				}
				batch := makeBatch(rng, cfg.BeaconsPerBatch)
				body, _ := json.Marshal(batch)
				sent.Add(1)
				var lastStatus int
				_, err := retry.Do(ctx, policy, func(ctx context.Context) (struct{}, error) {
					req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.URL, bytes.NewReader(body))
					if err != nil {
						return struct{}{}, retry.Permanent(err)
					}
					req.Header.Set("Content-Type", "application/json")
					req.Header.Set(android.XRequestedWithHeader, app)
					t0 := time.Now()
					resp, err := client.Do(req)
					if err != nil {
						return struct{}{}, retry.Transient(err)
					}
					userLat = append(userLat, time.Since(t0))
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					lastStatus = resp.StatusCode
					if resp.StatusCode >= 200 && resp.StatusCode < 300 {
						okResp.Add(1)
					} else if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
						shedResp.Add(1)
					}
					return struct{}{}, retry.ClassifyHTTPResponse(resp)
				})
				switch {
				case err == nil:
					accepted.Add(1)
					beaconsAccepted.Add(int64(len(batch)))
				case lastStatus == http.StatusTooManyRequests || lastStatus == http.StatusServiceUnavailable:
					shed.Add(1)
				default:
					errored.Add(1)
				}
			}
			latMu.Lock()
			latencies = append(latencies, userLat...)
			latMu.Unlock()
		}(u)
	}
	wg.Wait()
	res.Wall = time.Since(start)

	res.Sent = sent.Load()
	res.Accepted = accepted.Load()
	res.Shed = shed.Load()
	res.Errored = errored.Load()
	res.Attempts = metrics.Attempts.Load()
	res.OKResponses = okResp.Load()
	res.ShedResponses = shedResp.Load()
	res.BeaconsAccepted = beaconsAccepted.Load()
	res.P50, res.P99 = percentiles(latencies)
	return res, ctx.Err()
}

// makeBatch draws a crawl-shaped batch: size jittered around the mean,
// beacons drawn from the Trace.js population.
func makeBatch(rng *rand.Rand, mean int) []measure.Trace {
	n := mean/2 + rng.Intn(mean+1) // in [mean/2, mean/2+mean]
	if n < 1 {
		n = 1
	}
	batch := make([]measure.Trace, n)
	for i := range batch {
		batch[i] = loadBeaconPool[rng.Intn(len(loadBeaconPool))]
	}
	return batch
}

func percentiles(lat []time.Duration) (p50, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := func(q float64) time.Duration {
		i := int(q * float64(len(lat)-1))
		return lat[i]
	}
	return idx(0.50), idx(0.99)
}

// Reconcile cross-checks a load run against the server's own accounting
// and returns a descriptive error on the first discrepancy. With the
// generator as the service's only client, every count must match exactly:
// a mismatch means a silently dropped or double-counted beacon.
func (r *LoadResult) Reconcile(st Stats) error {
	if r.Sent != r.Accepted+r.Shed+r.Errored {
		return fmt.Errorf("serving: client accounting leak: sent %d != accepted %d + shed %d + errored %d",
			r.Sent, r.Accepted, r.Shed, r.Errored)
	}
	if r.Errored != 0 {
		return fmt.Errorf("serving: %d batches ended in transport errors", r.Errored)
	}
	if r.OKResponses != st.IngestRequests {
		return fmt.Errorf("serving: client saw %d acceptances, server ingested %d", r.OKResponses, st.IngestRequests)
	}
	if r.BeaconsAccepted != st.IngestBeacons {
		return fmt.Errorf("serving: client counted %d accepted beacons, server %d", r.BeaconsAccepted, st.IngestBeacons)
	}
	if r.ShedResponses != st.ShedTotal() {
		return fmt.Errorf("serving: client saw %d sheds, server shed %d", r.ShedResponses, st.ShedTotal())
	}
	if st.FlushedBatches != st.IngestRequests {
		return fmt.Errorf("serving: %d accepted batches but only %d flushed to the sink",
			st.IngestRequests, st.FlushedBatches)
	}
	if st.SinkErrors != 0 {
		return fmt.Errorf("serving: sink refused %d batches", st.SinkErrors)
	}
	return nil
}

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

// TestLoadClosedLoopAtCIScales replays closed-loop traffic at 4, 16 and
// 64 users against a fresh plane per scale, with a per-tenant quota of
// 2000 beacons/s (burst 200), and checks that no beacon goes missing:
// every batch ends accepted, shed or errored, none errors, the latency
// profile is sane, client and server accounting reconcile exactly, and
// the sink holds every accepted beacon. Its name must keep matching the
// serving-smoke job's -run 'Load|Drain|Quota|Collect'.
func TestLoadClosedLoopAtCIScales(t *testing.T) {
	for _, users := range []int{4, 16, 64} {
		t.Run(fmt.Sprintf("users=%d", users), func(t *testing.T) {
			svc, sink, url := startPlane(t, Config{
				QueueDepth: 128, Workers: 2, MaxConcurrent: 64,
				TenantRate: 2000, TenantBurst: 200,
			})
			res, err := RunLoad(context.Background(), LoadConfig{
				URL: url, Users: users, BatchesPerUser: 50, BeaconsPerBatch: 5, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Accepted+res.Shed+res.Errored != res.Sent {
				t.Errorf("%d accepted + %d shed + %d errored != %d sent",
					res.Accepted, res.Shed, res.Errored, res.Sent)
			}
			if res.Errored != 0 {
				t.Errorf("%d errored batches", res.Errored)
			}
			if !(res.P99 >= res.P50 && res.P50 > 0) {
				t.Errorf("broken latency profile: p50 %v p99 %v", res.P50, res.P99)
			}
			if err := svc.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := res.Reconcile(svc.Stats()); err != nil {
				t.Error(err)
			}
			if got := sink.Beacons(); got != res.BeaconsAccepted {
				t.Errorf("sink holds %d beacons, client counted %d accepted", got, res.BeaconsAccepted)
			}
			t.Logf("%d sent = %d accepted + %d shed, p50 %v p99 %v, %.0f beacons/s",
				res.Sent, res.Accepted, res.Shed, res.P50, res.P99,
				float64(res.BeaconsAccepted)/res.Wall.Seconds())
		})
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
	if ingest+shedTotal != res.Attempts {
		t.Errorf("server saw %d requests, client made %d attempts: silent drop",
			ingest+shedTotal, res.Attempts)
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
	_, p99 := percentiles(quietLat)
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
