package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
)

// CoordinatorConfig parameterises the control plane.
type CoordinatorConfig struct {
	// Spec is the scan configuration served to joining workers.
	Spec RunSpec
	// Telemetry, when non-nil, receives the lease/merge metric families.
	Telemetry *telemetry.Hub
	// Now is the lease clock (nil = time.Now). Injectable so chaos tests
	// expire leases deterministically instead of sleeping.
	Now func() time.Time
}

// lease is one live partition grant.
type lease struct {
	worker  string
	expires time.Time
	granted time.Time
	renewed time.Time
	// span is the coordinator's per-partition span in the fleet trace,
	// opened at grant and ended at acceptance (or expiry). Nil when the
	// coordinator hub has tracing off.
	span *telemetry.Span
}

// Coordinator owns the partition ledger: which partitions are leased, to
// whom, until when, and which are complete. It is an HTTP control plane —
// workers join over the wire, so they can be separate OS processes, and a
// worker in the coordinator's own process calls the same ledger methods
// directly — but all state lives here, in one place, guarded by one mutex;
// workers are stateless between leases.
type Coordinator struct {
	spec    RunSpec
	now     func() time.Time
	metrics *coordMetrics
	hub     *telemetry.Hub

	// fed federates worker snapshots and traces; traceID is the run's
	// fleet trace id.
	fed     *fleet.Federator
	traceID string

	mu         sync.Mutex
	leases     map[int]*lease
	complete   map[int]*pipeline.Result
	merged     *pipeline.Result
	mergeDur   time.Duration
	firstGrant time.Time
	done       chan struct{}
}

// NewCoordinator validates the spec and builds the ledger.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Spec.Shards < 1 {
		return nil, fmt.Errorf("shard: coordinator needs at least 1 shard, got %d", cfg.Spec.Shards)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	traceID := fleet.TraceID(cfg.Spec.Seed)
	return &Coordinator{
		spec:     cfg.Spec,
		now:      now,
		metrics:  newCoordMetrics(cfg.Telemetry),
		hub:      cfg.Telemetry,
		fed:      fleet.New(fleet.Config{Hub: cfg.Telemetry, Now: now, TraceID: traceID}),
		traceID:  traceID,
		leases:   make(map[int]*lease),
		complete: make(map[int]*pipeline.Result),
		done:     make(chan struct{}),
	}, nil
}

// Fleet returns the run's metrics/trace federator.
func (c *Coordinator) Fleet() *fleet.Federator { return c.fed }

// Handler returns the control-plane API:
//
//	GET  /v1/spec     the RunSpec
//	POST /v1/lease    {"worker":W} → a partition grant, wait, or done
//	POST /v1/renew    {"worker":W,"partition":P} → extend the lease
//	POST /v1/result   {"worker":W,"partition":P,"configKey":K,"result":R,
//	                   "metrics":S,"spans":[...]}
//	POST /v1/snapshot {"worker":W,"metrics":S} final registry flush
//
// and the fleet observability surface:
//
//	GET  /fleet/metrics     federated Prometheus text (shard-labeled series
//	                        plus shard="fleet" rollups; ?view=rollup for the
//	                        deterministic rollup alone)
//	GET  /fleet/metrics.json  the same view in /metrics.json's schema
//	GET  /fleet/status      live run status (JSON; ?format=text for human text)
//	GET  /fleet/trace       stitched fleet-wide per-APK trace as JSONL
//	                        (?view=control for the partition/run control spans)
//
// Serve it behind serving.Listen (hardened timeouts) in production; tests
// may mount it on an httptest server.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/spec", c.handleSpec)
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/renew", c.handleRenew)
	mux.HandleFunc("POST /v1/result", c.handleResult)
	mux.HandleFunc("POST /v1/snapshot", c.handleSnapshot)
	mux.HandleFunc("GET /fleet/metrics", c.handleFleetMetrics)
	mux.HandleFunc("GET /fleet/metrics.json", c.handleFleetMetricsJSON)
	mux.HandleFunc("GET /fleet/status", c.handleFleetStatus)
	mux.HandleFunc("GET /fleet/trace", c.handleFleetTrace)
	return mux
}

// sweep expires overdue leases. Called under mu before every ledger
// decision — lease issue, renewal, result acceptance, status — so expiry
// is driven by control-plane traffic and the injected clock, never by a
// background timer a test cannot steer.
func (c *Coordinator) sweep() {
	now := c.now()
	for p, l := range c.leases {
		if !l.expires.After(now) {
			delete(c.leases, p)
			c.metrics.expiries.Inc()
			c.metrics.inflight.Add(-1)
			l.span.SetAttr("outcome", "expired")
			l.span.End()
		}
	}
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.spec)
}

// LeaseGrant is the coordinator's answer to a lease request. Exactly one
// of the three shapes is populated: a grant (Partition ≥ 0), Wait (every
// pending partition is leased to a live worker — retry shortly), or Done
// (all partitions complete — the worker can exit).
//
// A grant also carries the propagated trace context: the seed-derived
// fleet trace id the worker records its run span under, and the name of
// the coordinator's per-partition span to parent it under.
type LeaseGrant struct {
	Partition int           `json:"partition"`
	Tag       string        `json:"tag,omitempty"`
	TTL       time.Duration `json:"ttl,omitempty"`
	Wait      bool          `json:"wait,omitempty"`
	Done      bool          `json:"done,omitempty"`
	TraceID   string        `json:"traceId,omitempty"`
	Parent    string        `json:"parent,omitempty"`
}

type leaseRequest struct {
	Worker string `json:"worker"`
	// MetricsURL announces the worker's live /metrics.json endpoint for
	// coordinator pulls ("" = not scrapeable). The coordinator keeps it
	// only in the form scrapeURL accepts.
	MetricsURL string `json:"metricsUrl,omitempty"`
}

// scrapeURL returns announced when it is http://<ip>:<port>/metrics.json
// with <ip> the address the lease request came from, and "" otherwise.
// Every /fleet/status fetches the registered URLs, so a lease may name
// only its own host's metrics endpoint: no other host, path, userinfo,
// query or fragment.
func scrapeURL(announced, remoteAddr string) string {
	hostPort, ok := strings.CutPrefix(announced, "http://")
	if !ok {
		return ""
	}
	if hostPort, ok = strings.CutSuffix(hostPort, "/metrics.json"); !ok {
		return ""
	}
	host, port, err := net.SplitHostPort(hostPort)
	if err != nil {
		return ""
	}
	if _, err := strconv.ParseUint(port, 10, 16); err != nil {
		return ""
	}
	remote, _, err := net.SplitHostPort(remoteAddr)
	if err != nil {
		return ""
	}
	ip := net.ParseIP(host)
	if ip == nil || !ip.Equal(net.ParseIP(remote)) {
		return ""
	}
	return announced
}

// partitionSpan names the coordinator's per-partition span in the fleet
// trace.
func partitionSpan(tag string) string { return "partition:" + tag }

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if readJSON(w, r, &req) {
		writeJSON(w, http.StatusOK, c.lease(req.Worker, scrapeURL(req.MetricsURL, r.RemoteAddr)))
	}
}

// lease grants worker the first partition neither complete nor leased, or
// answers wait or done. metricsURL is the worker's live endpoint, already
// vetted ("" = not scrapeable).
func (c *Coordinator) lease(worker, metricsURL string) LeaseGrant {
	c.fed.RegisterWorker(worker, metricsURL)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweep()

	if len(c.complete) == c.spec.Shards {
		return LeaseGrant{Partition: -1, Done: true}
	}
	for p := 0; p < c.spec.Shards; p++ {
		if _, ok := c.complete[p]; ok {
			continue
		}
		if _, ok := c.leases[p]; ok {
			continue
		}
		now := c.now()
		tag := PartitionTag(p, c.spec.Shards)
		c.leases[p] = &lease{
			worker:  worker,
			expires: now.Add(c.spec.TTL()),
			granted: now,
			span:    c.hub.Trace(c.traceID).Start(partitionSpan(tag), "worker", worker),
		}
		if c.firstGrant.IsZero() {
			c.firstGrant = now
		}
		c.metrics.grants.Inc()
		c.metrics.inflight.Add(1)
		return LeaseGrant{
			Partition: p,
			Tag:       tag,
			TTL:       c.spec.TTL(),
			TraceID:   c.traceID,
			Parent:    partitionSpan(tag),
		}
	}
	// Nothing free, nothing done-for-good: the worker should poll again.
	return LeaseGrant{Partition: -1, Wait: true}
}

type renewRequest struct {
	Worker    string `json:"worker"`
	Partition int    `json:"partition"`
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req renewRequest
	if readJSON(w, r, &req) {
		reply(w, c.renew(req))
	}
}

// renew extends req's lease: 200, or 410 when the lease expired (and may
// already be re-issued elsewhere), so the worker must abandon the
// partition.
func (c *Coordinator) renew(req renewRequest) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweep()

	l, ok := c.leases[req.Partition]
	if !ok || l.worker != req.Worker {
		c.metrics.rejects.Inc()
		return http.StatusGone
	}
	l.expires = c.now().Add(c.spec.TTL())
	l.renewed = c.now()
	c.metrics.renewals.Inc()
	c.fed.Heartbeat(req.Worker)
	return http.StatusOK
}

type resultRequest struct {
	Worker    string           `json:"worker"`
	Partition int              `json:"partition"`
	ConfigKey string           `json:"configKey"`
	Result    *pipeline.Result `json:"result"`
	// Metrics / Spans are the partition's federated telemetry: the
	// registry snapshot delta this partition's run added to the worker's
	// hub, and the spans it recorded. Metrics stays raw until
	// telemetry.DecodeSnapshot validates it, so a bad delta is refused
	// without refusing the report. Both are ingested if and only if the
	// result is accepted, so the fleet rollup inherits the merge's
	// exactly-once semantics.
	Metrics json.RawMessage      `json:"metrics,omitempty"`
	Spans   []telemetry.SpanLine `json:"spans,omitempty"`
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if readJSON(w, r, &req) {
		reply(w, c.accept(&req))
	}
}

// accept merges a partition's result into the ledger: 200, 400 without a
// result, 409 under another analysis configuration, 410 when the lease is
// gone. The last acceptance merges the run.
func (c *Coordinator) accept(req *resultRequest) int {
	if req.Result == nil {
		return http.StatusBadRequest
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweep()

	if c.spec.ConfigKey != "" && req.ConfigKey != c.spec.ConfigKey {
		// The worker ran a different analysis configuration; merging its
		// partition would silently corrupt the report.
		c.metrics.mismatch.Inc()
		return http.StatusConflict
	}
	l, ok := c.leases[req.Partition]
	if !ok || l.worker != req.Worker {
		// Stale submission: the lease expired and the partition is (or will
		// be) re-scanned by a peer. Exactly-once on the merge side means
		// refusing this copy — and with it the attached metrics delta and
		// spans, which is what keeps a killed worker's partial snapshot out
		// of the fleet rollup.
		c.metrics.stale.Inc()
		return http.StatusGone
	}
	delete(c.leases, req.Partition)
	c.metrics.inflight.Add(-1)
	c.complete[req.Partition] = req.Result
	c.metrics.accepted.Inc()
	l.span.SetAttr("outcome", "accepted")
	l.span.End()
	c.fed.Heartbeat(req.Worker)
	if err := c.fed.AcceptResult(req.Partition, req.Worker, req.Metrics, req.Spans, c.now().Sub(l.granted)); err != nil {
		// The report is good even when the telemetry payload is not;
		// log-by-metric and move on rather than failing the partition.
		c.metrics.snapshotRejects.Inc()
	}

	if len(c.complete) == c.spec.Shards {
		start := time.Now()
		parts := make([]*pipeline.Result, c.spec.Shards)
		for p, res := range c.complete {
			parts[p] = res
		}
		c.merged = Merge(parts)
		c.mergeDur = time.Since(start)
		c.metrics.mergeSeconds.Observe(c.mergeDur.Seconds())
		close(c.done)
	}
	return http.StatusOK
}

// snapshotRequest is a worker's out-of-band registry flush — pushed on
// graceful shutdown so even a worker that exits between leases reports
// its final counters.
type snapshotRequest struct {
	Worker  string          `json:"worker"`
	Metrics json.RawMessage `json:"metrics"`
}

func (c *Coordinator) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req snapshotRequest
	if readJSON(w, r, &req) {
		reply(w, c.flush(req))
	}
}

// flush records a worker's final registry in its live view: 200, or 400
// without a worker name or with a snapshot that does not decode.
func (c *Coordinator) flush(req snapshotRequest) int {
	if req.Worker == "" || c.fed.FinalFlush(req.Worker, req.Metrics) != nil {
		return http.StatusBadRequest
	}
	return http.StatusOK
}

// serve answers a control-plane call from a worker in this process through
// the ledger methods the HTTP handlers decode into, dispatching on the
// request's type as the handlers do on the path. Nothing is encoded: a
// partition's result reaches the merge as the worker built it, and the
// worker's own endpoint registers without the remote-address check that
// guards announced URLs.
func (c *Coordinator) serve(in, out any) int {
	switch req := in.(type) {
	case nil:
		*out.(*RunSpec) = c.spec
	case leaseRequest:
		*out.(*LeaseGrant) = c.lease(req.Worker, req.MetricsURL)
	case renewRequest:
		return c.renew(req)
	case resultRequest:
		return c.accept(&req)
	case snapshotRequest:
		return c.flush(req)
	}
	return http.StatusOK
}

func (c *Coordinator) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if r.URL.Query().Get("view") == "rollup" {
		c.fed.WriteRollupProm(w)
		return
	}
	c.fed.WriteFleetProm(w)
}

func (c *Coordinator) handleFleetMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	c.fed.WriteFleetJSON(w)
}

func (c *Coordinator) handleFleetTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	if r.URL.Query().Get("view") == "control" {
		telemetry.WriteTraceJSONL(w, c.controlSpans())
		return
	}
	c.fed.WriteTraceJSONL(w)
}

// controlSpans merges the coordinator's own per-partition spans with the
// run spans workers submitted — the topology-shaped control-plane trace,
// served separately from the deterministic per-APK export.
func (c *Coordinator) controlSpans() []telemetry.SpanLine {
	lines := c.fed.ControlSpans()
	for _, line := range c.hub.Tracer().SpansSince(nil) {
		if line.Trace == c.traceID {
			lines = append(lines, line)
		}
	}
	return lines
}

func (c *Coordinator) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	c.fed.Scrape(r.Context())
	doc := c.statusDoc()
	wantText := r.URL.Query().Get("format") == "text" ||
		strings.Contains(r.Header.Get("Accept"), "text/plain")
	if wantText {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fleet.RenderStatus(w, doc)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// statusDoc assembles the live fleet status from the lease ledger and the
// federated snapshots.
func (c *Coordinator) statusDoc() *fleet.StatusDoc {
	c.mu.Lock()
	c.sweep()
	now := c.now()
	ttl := c.spec.TTL()
	doc := &fleet.StatusDoc{
		Shards:     c.spec.Shards,
		Seed:       c.spec.Seed,
		TraceID:    c.traceID,
		CorpusSize: c.spec.CorpusEntries,
		Done:       len(c.complete),
		Finished:   len(c.complete) == c.spec.Shards,
	}
	if !c.firstGrant.IsZero() {
		doc.ElapsedS = now.Sub(c.firstGrant).Seconds()
	}
	var wallSum time.Duration
	var wallN int
	for p := 0; p < c.spec.Shards; p++ {
		ps := fleet.PartitionStatus{
			Partition: p,
			Tag:       PartitionTag(p, c.spec.Shards),
			State:     "pending",
		}
		if _, done := c.complete[p]; done {
			ps.State = "done"
			if counts, worker, wall, ok := c.fed.PartitionCounts(p); ok {
				ps.Worker = worker
				ps.APKs = counts.APKs
				ps.WallS = wall.Seconds()
				if wall > 0 {
					ps.APKsPerSec = float64(counts.APKs) / wall.Seconds()
					wallSum += wall
					wallN++
				}
			}
		} else if l, leased := c.leases[p]; leased {
			ps.State = "leased"
			ps.Worker = l.worker
			ps.LeaseExpiresInS = l.expires.Sub(now).Seconds()
			if !l.renewed.IsZero() {
				ps.RenewAgeS = now.Sub(l.renewed).Seconds()
			}
			doc.Leased++
		}
		if ps.State == "pending" {
			doc.Pending++
		}
		doc.Partitions = append(doc.Partitions, ps)
	}
	c.mu.Unlock()

	doc.Fleet = c.fed.RollupCounts()
	doc.StageLatency = c.fed.StageQuantiles()
	if doc.ElapsedS > 0 {
		doc.APKsPerSec = float64(doc.Fleet.APKs) / doc.ElapsedS
	}

	liveWorkers := 0
	for _, wk := range c.fed.Workers() {
		ws := fleet.WorkerStatus{
			Name:         wk.Name,
			MetricsURL:   wk.MetricsURL,
			LastSeenAgoS: now.Sub(wk.LastSeen).Seconds(),
			Flushed:      wk.Flushed,
			ScrapeErr:    wk.ScrapeErr,
		}
		// Staleness rule: a worker silent for longer than the lease TTL is
		// stale — any lease it held has already been swept and re-issued.
		ws.Stale = now.Sub(wk.LastSeen) > ttl
		if counts, ok := c.fed.WorkerCounts(wk.Name); ok {
			ws.APKs = counts.APKs
		}
		if !ws.Stale && !wk.Flushed {
			liveWorkers++
		}
		doc.Workers = append(doc.Workers, ws)
	}

	// ETA: remaining partitions at the average completed-partition wall,
	// spread over the live workers.
	if remaining := doc.Shards - doc.Done; remaining > 0 && wallN > 0 {
		avg := wallSum.Seconds() / float64(wallN)
		workers := liveWorkers
		if workers < 1 {
			workers = 1
		}
		doc.ETASeconds = float64(remaining) * avg / float64(workers)
	}
	return doc
}

// Wait blocks until every partition is complete and returns the merged
// report, or the context's cause once it ends. A merge that is complete
// when the context ends still wins: workers see Done only after the
// merge, so their exit must not turn a finished run into a failure.
func (c *Coordinator) Wait(ctx context.Context) (*pipeline.Result, error) {
	select {
	case <-c.done:
	case <-ctx.Done():
		select {
		case <-c.done:
		default:
			return nil, context.Cause(ctx)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.merged, nil
}

// MergeLatency reports how long the final merge took (zero until done).
func (c *Coordinator) MergeLatency() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mergeDur
}

// maxBody bounds control-plane request bodies. Result payloads carry every
// analysed app of a partition, so the ceiling is generous; everything else
// is tiny.
const maxBody = 256 << 20

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		http.Error(w, "read body", http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, "bad json", http.StatusBadRequest)
		return false
	}
	return true
}

// reply answers a ledger decision: {"ok":true} on 200, the status text
// otherwise.
func reply(w http.ResponseWriter, code int) {
	if code != http.StatusOK {
		http.Error(w, http.StatusText(code), code)
		return
	}
	writeJSON(w, code, map[string]bool{"ok": true})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
