// Package serving is the hardened front door of the measurement plane: it
// turns the toy beacon collector (internal/measure) into a multi-tenant
// ingest service shaped like production infrastructure. Requests from
// simulated WebViews — attributed per app by the X-Requested-With header —
// pass an admission-control concurrency limiter, a body-size cap, a
// per-tenant token-bucket quota and a bounded ingest queue before a worker
// pool streams them into a pluggable Sink.
//
// Overload is always explicit, never silent: a full queue or an exhausted
// quota answers 429 with a Retry-After hint, admission saturation and
// drain answer 503, malformed input answers 400/413 — so every beacon a
// client sends is either ingested or visibly shed, and the
// serving_ingest_total / serving_shed_total counters reconcile exactly
// with client-side accounting. Graceful drain (Drain) stops accepting,
// flushes every in-flight batch, and only then lets the workers exit, so
// accepted beacons are never lost to shutdown.
package serving

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/android"
	"repro/internal/measure"
	"repro/internal/telemetry"
)

// Sink consumes accepted beacon batches. Implementations must be safe for
// concurrent use; *measure.Server is the production sink.
type Sink interface {
	Accept(app string, batch []measure.Trace) error
}

// Shed reasons, the values of the serving_shed_total{reason} label and the
// keys of Stats.Shed.
const (
	ShedQueueFull = "queue_full" // bounded ingest queue was full → 429
	ShedQuota     = "quota"      // tenant token bucket exhausted → 429
	ShedAdmission = "admission"  // concurrency limiter saturated → 503
	ShedDraining  = "draining"   // drain started, no longer accepting → 503
)

var shedReasons = []string{ShedQueueFull, ShedQuota, ShedAdmission, ShedDraining}

// DefaultTenant attributes beacons whose request carries no
// X-Requested-With header.
const DefaultTenant = "unattributed"

// Config parameterises a Service. The zero value of every field has a
// serviceable default; only Sink is required.
type Config struct {
	// Sink receives accepted batches from the drain workers.
	Sink Sink
	// QueueDepth bounds the ingest queue in batches; <= 0 means 256.
	QueueDepth int
	// Workers is the number of queue-drain goroutines; <= 0 means 1.
	Workers int
	// MaxBodyBytes caps one POST body; <= 0 means measure.MaxCollectBody.
	MaxBodyBytes int64
	// MaxConcurrent bounds concurrently admitted /collect requests; <= 0
	// means 64.
	MaxConcurrent int
	// TenantRate is the per-tenant sustained quota in beacons/second;
	// <= 0 means unlimited (no quota enforcement).
	TenantRate float64
	// TenantBurst is the token-bucket capacity in beacons; <= 0 derives
	// max(1, 2*TenantRate).
	TenantBurst float64
	// RetryAfter is the delay advised on queue-full/admission/drain sheds;
	// <= 0 means 1s. Quota sheds advise the bucket's actual refill time.
	RetryAfter time.Duration
	// Hub mirrors ingest/shed/queue metrics into telemetry (nil = off).
	Hub *telemetry.Hub
	// Now is the quota clock; nil means time.Now. Injectable for tests.
	Now func() time.Time
	// Pages serves every path other than /collect (the controlled test
	// page and its assets); nil answers 404.
	Pages http.Handler
}

// Stats is a consistent-enough snapshot of the service's own atomic
// accounting (kept independent of telemetry so reconciliation works even
// with a nil Hub). Units are requests unless stated otherwise.
type Stats struct {
	IngestRequests int64            // requests accepted into the queue
	IngestBeacons  int64            // beacons inside those requests
	Shed           map[string]int64 // visibly refused requests, by reason
	Rejected       int64            // malformed/oversized requests (400/413)
	FlushedBatches int64            // batches delivered to the sink
	SinkErrors     int64            // batches the sink refused
}

// ShedTotal sums sheds across reasons.
func (s Stats) ShedTotal() int64 {
	var n int64
	for _, v := range s.Shed {
		n += v
	}
	return n
}

type job struct {
	app   string
	batch []measure.Trace
}

// Service is a running ingest plane. Create with NewService, expose with
// Handler, stop with Drain (or Close).
type Service struct {
	cfg     Config
	queue   chan job
	quotas  *quotaSet
	limiter *limiter

	mu       sync.Mutex // guards draining and queue sends vs. close(queue)
	draining bool

	wg sync.WaitGroup // drain workers

	// Flush accounting: pending = accepted-but-not-yet-sunk batches.
	fmu     sync.Mutex
	fcond   *sync.Cond
	pending int64

	ingestRequests atomic.Int64
	ingestBeacons  atomic.Int64
	shed           map[string]*atomic.Int64
	rejected       atomic.Int64
	flushed        atomic.Int64
	sinkErrors     atomic.Int64

	// telemetry handles (nil-safe when cfg.Hub is nil)
	queueDepth *telemetry.Gauge
	inflight   *telemetry.Gauge
	latency    *telemetry.Histogram
	tenants    sync.Map // tenant → *tenantCounters
}

type tenantCounters struct {
	ingest  *telemetry.Counter
	beacons *telemetry.Counter
	shed    map[string]*telemetry.Counter
}

// NewService builds and starts the ingest plane: the queue is allocated
// and the drain workers are running on return.
func NewService(cfg Config) *Service {
	if cfg.Sink == nil {
		panic("serving: Config.Sink is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = measure.MaxCollectBody
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Service{
		cfg:     cfg,
		queue:   make(chan job, cfg.QueueDepth),
		quotas:  newQuotaSet(cfg.TenantRate, cfg.TenantBurst, cfg.Now),
		limiter: newLimiter(cfg.MaxConcurrent),
		shed:    make(map[string]*atomic.Int64, len(shedReasons)),
	}
	for _, reason := range shedReasons {
		s.shed[reason] = &atomic.Int64{}
	}
	s.fcond = sync.NewCond(&s.fmu)
	if h := cfg.Hub; h != nil {
		s.queueDepth = h.Gauge("serving_queue_depth", "batches waiting in the bounded ingest queue")
		s.inflight = h.Gauge("serving_inflight_requests", "collect requests past admission control")
		s.latency = h.Histogram("serving_ingest_latency_seconds", "collect request handling latency", nil)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// tenant returns (creating on first use) the telemetry handles for one
// tenant; all-nil handles when telemetry is off.
func (s *Service) tenant(app string) *tenantCounters {
	if v, ok := s.tenants.Load(app); ok {
		return v.(*tenantCounters)
	}
	tc := &tenantCounters{shed: make(map[string]*telemetry.Counter, len(shedReasons))}
	if h := s.cfg.Hub; h != nil {
		tc.ingest = h.Counter("serving_ingest_total", "collect requests accepted into the ingest queue", "tenant", app)
		tc.beacons = h.Counter("serving_ingest_beacons_total", "beacons accepted into the ingest queue", "tenant", app)
		for _, reason := range shedReasons {
			tc.shed[reason] = h.Counter("serving_shed_total", "collect requests visibly refused (429/503)", "tenant", app, "reason", reason)
		}
	}
	actual, _ := s.tenants.LoadOrStore(app, tc)
	return actual.(*tenantCounters)
}

// Handler returns the HTTP surface: /collect via the hardened ingest path
// (GET single-beacon and POST batch), every other path via cfg.Pages.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/collect", s.handleCollect)
	if s.cfg.Pages != nil {
		mux.Handle("/", s.cfg.Pages)
	}
	return mux
}

func (s *Service) handleCollect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	app := r.Header.Get(android.XRequestedWithHeader)
	if app == "" {
		app = DefaultTenant
	}
	timer := s.cfg.Hub.Timer("serving", "ingest")

	// Admission control: bound the requests decoding bodies concurrently
	// before they can pile onto the queue lock.
	if !s.limiter.tryAcquire() {
		s.refuse(w, app, ShedAdmission, http.StatusServiceUnavailable, s.cfg.RetryAfter)
		return
	}
	defer s.limiter.release()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	// Fast-path drain check; enqueue re-checks under the lock.
	if s.isDraining() {
		s.refuse(w, app, ShedDraining, http.StatusServiceUnavailable, s.cfg.RetryAfter)
		return
	}

	// Bounded decode: the stricter of the configured cap and the measure
	// package's own applies.
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	batch, err := measure.DecodeCollect(w, r)
	if err != nil {
		s.rejected.Add(1)
		measure.WriteCollectError(w, err)
		return
	}
	for _, tr := range batch {
		if tr.Interface == "" && tr.Method == "" {
			s.rejected.Add(1)
			http.Error(w, measure.ErrEmptyTrace.Error(), http.StatusBadRequest)
			return
		}
	}

	// Per-tenant quota: one token per beacon, advising the bucket's actual
	// refill horizon on refusal so a chatty tenant self-paces.
	if wait, ok := s.quotas.take(app, len(batch)); !ok {
		s.refuse(w, app, ShedQuota, http.StatusTooManyRequests, wait)
		return
	}

	switch s.enqueue(job{app: app, batch: batch}) {
	case "":
		s.ingestRequests.Add(1)
		s.ingestBeacons.Add(int64(len(batch)))
		tc := s.tenant(app)
		tc.ingest.Inc()
		tc.beacons.Add(int64(len(batch)))
		timer.ObserveInto(s.latency)
		w.WriteHeader(http.StatusNoContent)
	case ShedDraining:
		s.refuse(w, app, ShedDraining, http.StatusServiceUnavailable, s.cfg.RetryAfter)
	default:
		s.refuse(w, app, ShedQueueFull, http.StatusTooManyRequests, s.cfg.RetryAfter)
	}
}

// refuse sheds one request: counted, never silent, always carrying a
// Retry-After hint so well-behaved clients back off exactly as asked.
func (s *Service) refuse(w http.ResponseWriter, app, reason string, status int, retryAfter time.Duration) {
	s.shed[reason].Add(1)
	s.tenant(app).shed[reason].Inc()
	secs := int64(retryAfter / time.Second)
	if retryAfter%time.Second != 0 || secs == 0 {
		secs++ // Retry-After is integer seconds; round up, never advise 0
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	if reason == ShedDraining {
		w.Header().Set("Connection", "close")
	}
	http.Error(w, "overloaded: "+reason, status)
}

// enqueue places a job on the bounded queue. It returns "" on success,
// ShedDraining after drain start, ShedQueueFull when the queue is full.
func (s *Service) enqueue(j job) string {
	s.fmu.Lock()
	s.pending++
	s.fmu.Unlock()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.unpend()
		return ShedDraining
	}
	select {
	case s.queue <- j:
		s.queueDepth.Set(int64(len(s.queue)))
		s.mu.Unlock()
		return ""
	default:
		s.mu.Unlock()
		s.unpend()
		return ShedQueueFull
	}
}

func (s *Service) unpend() {
	s.fmu.Lock()
	s.pending--
	if s.pending == 0 {
		s.fcond.Broadcast()
	}
	s.fmu.Unlock()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if err := s.cfg.Sink.Accept(j.app, j.batch); err != nil {
			s.sinkErrors.Add(1)
		}
		s.flushed.Add(1)
		s.queueDepth.Set(int64(len(s.queue)))
		s.unpend()
	}
}

func (s *Service) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Flush blocks until every batch accepted so far has been delivered to the
// sink — the read-your-writes barrier callers need before inspecting the
// sink (e.g. building a Table 9 row right after a probe's beacons landed).
func (s *Service) Flush() {
	s.fmu.Lock()
	for s.pending > 0 {
		s.fcond.Wait()
	}
	s.fmu.Unlock()
}

// Drain gracefully stops the service: new requests are refused with 503
// (reason "draining"), every batch already accepted is flushed to the
// sink, and the workers exit. Idempotent; bounded by ctx.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serving: drain: %w", ctx.Err())
	}
}

// Close is Drain without a deadline.
func (s *Service) Close() error { return s.Drain(context.Background()) }

// Stats snapshots the service's own accounting.
func (s *Service) Stats() Stats {
	st := Stats{
		IngestRequests: s.ingestRequests.Load(),
		IngestBeacons:  s.ingestBeacons.Load(),
		Shed:           make(map[string]int64, len(shedReasons)),
		Rejected:       s.rejected.Load(),
		FlushedBatches: s.flushed.Load(),
		SinkErrors:     s.sinkErrors.Load(),
	}
	for reason, c := range s.shed {
		st.Shed[reason] = c.Load()
	}
	return st
}
