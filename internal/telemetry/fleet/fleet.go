// Package fleet is the cross-process observability plane for the sharded
// scan: it federates per-worker metrics registries into one fleet view,
// stitches per-APK traces from every shard into a single JSONL export,
// and assembles the live status document behind GET /fleet/status.
//
// The determinism discipline extends across processes. The fleet trace id
// is derived from the run seed alone; the rollup is the sum of
// per-partition registry *deltas* (each accepted exactly once, with its
// /v1/result payload), combined with integer-exact arithmetic — so two
// same-seed runs produce byte-identical rollups and stitched traces no
// matter how many shards or workers the corpus was spread over. Live
// per-worker scrapes and final-flush snapshots feed the status surface
// only; they never enter the rollup, which is how a killed worker's
// partial counters can't double-count after its partition is re-leased.
package fleet

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// TraceID derives the deterministic fleet trace id for a run seed. Every
// process in the run — coordinator and workers alike — records its
// control-plane spans (partition leases, worker runs) under this id.
// Per-APK traces keep their single-process ids (`apk:<pkg>`): each
// package sits in exactly one partition, so they are unique fleet-wide.
func TraceID(seed int64) string {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	return fmt.Sprintf("fleet-%016x", h.Sum64())
}

// Pipeline metric families the status surface reads. These names are the
// public /metrics wire format (registered in internal/pipeline and
// internal/retry's mirror); the fleet plane consumes them like any other
// scraper would.
const (
	famStageItems   = "pipeline_stage_items_total"
	famStageQuar    = "pipeline_stage_quarantined_total"
	famStageLatency = "pipeline_stage_latency_seconds"
	famCache        = "pipeline_cache_total"
	famRetries      = "retry_retries_total"
)

// famSnapshots counts every snapshot the federator ingests, by source:
// result (per-partition delta with an accepted /v1/result), scrape (live
// /metrics pull), final (graceful-shutdown flush).
const famSnapshots = "fleet_snapshot_total"

// Config parameterises a Federator.
type Config struct {
	// Hub receives the federator's own metric families (fleet_snapshot_total).
	Hub *telemetry.Hub
	// Now is the staleness/scrape clock (nil = time.Now); injectable so
	// tests steer it like the coordinator's lease clock.
	Now func() time.Time
	// Client performs live /metrics.json scrapes (nil = 5s-timeout default).
	Client *http.Client
	// ScrapeGap is the minimum interval between scrape sweeps; status
	// requests arriving faster than this reuse the previous scrape
	// (0 = 2s). Scrapes happen on demand — the federator runs no
	// background timers.
	ScrapeGap time.Duration
	// TraceID is the run's fleet trace id (TraceID(seed)). Span lines
	// submitted under this exact id are control-plane spans and are kept
	// out of the deterministic per-APK export.
	TraceID string
}

// partitionData is one accepted partition's contribution: the registry
// delta its run added to the worker's hub, and the spans it recorded.
type partitionData struct {
	worker   string
	delta    *telemetry.Snapshot
	apkSpans []telemetry.SpanLine
	ctl      []telemetry.SpanLine
	wall     time.Duration
}

// workerData is the live (non-rollup) view of one worker process.
type workerData struct {
	metricsURL string
	lastSeen   time.Time
	snap       *telemetry.Snapshot // cumulative, from scrape or final flush
	scrapeErr  string
	finalFlush bool
}

// Federator accumulates snapshots and serves the merged views. All
// methods are safe for concurrent use.
type Federator struct {
	cfg                               Config
	now                               func() time.Time
	client                            *http.Client
	snapResult, snapScrape, snapFinal *telemetry.Counter

	mu         sync.Mutex
	partitions map[int]*partitionData
	workers    map[string]*workerData
	lastScrape time.Time
	scraped    bool
}

// New builds a Federator.
func New(cfg Config) *Federator {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.ScrapeGap <= 0 {
		cfg.ScrapeGap = 2 * time.Second
	}
	snap := func(source string) *telemetry.Counter {
		return cfg.Hub.Counter(famSnapshots, "worker registry snapshots ingested, by source", "source", source)
	}
	return &Federator{
		cfg:        cfg,
		now:        now,
		client:     client,
		snapResult: snap("result"),
		snapScrape: snap("scrape"),
		snapFinal:  snap("final"),
		partitions: make(map[int]*partitionData),
		workers:    make(map[string]*workerData),
	}
}

// AcceptResult ingests the metrics delta (a JSON snapshot, decoded with
// telemetry.DecodeSnapshot) and trace spans a worker submitted alongside
// an accepted /v1/result. Call it only for accepted results — the lease
// check upstream is what makes the rollup exactly-once. A delta that does
// not decode, or does not merge with the deltas already accepted, is
// refused whole. Span lines on the fleet trace id itself are
// control-plane spans and are routed to the control view, not the
// per-APK export.
func (f *Federator) AcceptResult(partition int, worker string, metrics []byte, spans []telemetry.SpanLine, wall time.Duration) error {
	delta, err := telemetry.DecodeSnapshot(metrics)
	if err != nil {
		return fmt.Errorf("fleet: partition %d metrics: %w", partition, err)
	}
	pd := &partitionData{worker: worker, delta: delta, wall: wall}
	for _, line := range spans {
		if line.Trace == f.cfg.TraceID {
			pd.ctl = append(pd.ctl, line)
		} else {
			pd.apkSpans = append(pd.apkSpans, line)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := telemetry.Merge(f.rollupLocked(), delta); err != nil {
		return fmt.Errorf("fleet: partition %d metrics: %w", partition, err)
	}
	f.partitions[partition] = pd
	f.snapResult.Inc()
	return nil
}

// RegisterWorker records (or refreshes) a worker's live /metrics URL and
// marks it seen. Workers re-announce the URL on every lease request, so
// restarts re-register naturally.
func (f *Federator) RegisterWorker(name, metricsURL string) {
	if name == "" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	wd := f.workers[name]
	if wd == nil {
		wd = &workerData{}
		f.workers[name] = wd
	}
	if metricsURL != "" {
		wd.metricsURL = metricsURL
	}
	wd.lastSeen = f.now()
}

// Heartbeat marks a worker seen (renewals, result posts).
func (f *Federator) Heartbeat(name string) { f.RegisterWorker(name, "") }

// FinalFlush ingests the cumulative registry snapshot (JSON) a worker
// pushes on graceful shutdown. It feeds the live worker view only — the
// rollup is built from per-partition deltas, so a final flush can never
// double-count work that was already accepted.
func (f *Federator) FinalFlush(worker string, metrics []byte) error {
	snap, err := telemetry.DecodeSnapshot(metrics)
	if err != nil {
		return fmt.Errorf("fleet: final snapshot from %s: %w", worker, err)
	}
	f.mu.Lock()
	wd := f.workers[worker]
	if wd == nil {
		wd = &workerData{}
		f.workers[worker] = wd
	}
	wd.snap = snap
	wd.lastSeen = f.now()
	wd.finalFlush = true
	f.mu.Unlock()
	f.snapFinal.Inc()
	return nil
}

// Flushed merges the final snapshots workers flushed, in name order: all
// the work they did, accepted or not. A run that fails before its merge
// has no rollup; this is its account of what its workers did before they
// stopped.
func (f *Federator) Flushed() *telemetry.Snapshot {
	var snaps []*telemetry.Snapshot
	for _, wk := range f.Workers() {
		f.mu.Lock()
		if wd := f.workers[wk.Name]; wd.finalFlush {
			snaps = append(snaps, wd.snap)
		}
		f.mu.Unlock()
	}
	merged, err := telemetry.Merge(snaps...)
	if err != nil {
		// A flush from another build's worker conflicts: account for none.
		merged, _ = telemetry.Merge()
	}
	return merged
}

// Scrape pulls /metrics.json from every registered worker, rate-limited by
// ScrapeGap. It is called on demand when /fleet/status is requested, the
// one view that reads scraped data; failures are recorded per worker and
// surfaced in the status document rather than failing the request.
func (f *Federator) Scrape(ctx context.Context) {
	f.mu.Lock()
	if f.scraped && f.now().Sub(f.lastScrape) < f.cfg.ScrapeGap {
		f.mu.Unlock()
		return
	}
	f.lastScrape = f.now()
	f.scraped = true
	type target struct{ name, url string }
	var targets []target
	for name, wd := range f.workers {
		if wd.metricsURL != "" && !wd.finalFlush {
			targets = append(targets, target{name, wd.metricsURL})
		}
	}
	f.mu.Unlock()

	for _, t := range targets {
		snap, err := f.scrapeOne(ctx, t.url)
		f.mu.Lock()
		if wd := f.workers[t.name]; wd != nil {
			if err != nil {
				wd.scrapeErr = err.Error()
			} else {
				wd.scrapeErr = ""
				wd.snap = snap
			}
		}
		f.mu.Unlock()
		if err == nil {
			f.snapScrape.Inc()
		}
	}
}

func (f *Federator) scrapeOne(ctx context.Context, url string) (*telemetry.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	return telemetry.DecodeSnapshot(body)
}

// Rollup merges every accepted partition delta into one snapshot — the
// deterministic fleet totals. Partitions merge in index order, so Help
// sticks to the lowest partition's; the arithmetic is commutative.
func (f *Federator) Rollup() *telemetry.Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rollupLocked()
}

// rollupLocked merges the accepted deltas, which AcceptResult admitted
// only if they merge, so the merge cannot fail.
func (f *Federator) rollupLocked() *telemetry.Snapshot {
	var deltas []*telemetry.Snapshot
	for _, p := range f.partitionOrder() {
		deltas = append(deltas, f.partitions[p].delta)
	}
	rollup, _ := telemetry.Merge(deltas...)
	return rollup
}

func (f *Federator) partitionOrder() []int {
	parts := make([]int, 0, len(f.partitions))
	for p := range f.partitions {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	return parts
}

// fleetSnapshot builds the full federated view: every accepted
// partition's delta labeled shard="<index>", plus the rollup labeled
// shard="fleet" — so `fleet == Σ shards` holds series-wise for every
// counter family and is checkable straight off /fleet/metrics.
func (f *Federator) fleetSnapshot() *telemetry.Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	var views []*telemetry.Snapshot
	for _, p := range f.partitionOrder() {
		views = append(views, f.partitions[p].delta.WithLabel("shard", strconv.Itoa(p)))
	}
	fleet, _ := telemetry.Merge(append(views, f.rollupLocked().WithLabel("shard", "fleet"))...)
	return fleet
}

// WriteRollupProm writes the deterministic rollup as Prometheus text —
// the byte-identity surface the fleet determinism test asserts.
func (f *Federator) WriteRollupProm(w io.Writer) error {
	return f.Rollup().WriteProm(w)
}

// WriteFleetProm writes the shard-labeled + rollup exposition.
func (f *Federator) WriteFleetProm(w io.Writer) error {
	return f.fleetSnapshot().WriteProm(w)
}

// WriteFleetJSON writes the same view in /metrics.json's schema.
func (f *Federator) WriteFleetJSON(w io.Writer) error {
	return f.fleetSnapshot().WriteJSON(w)
}

// WriteTraceJSONL writes the stitched fleet-wide per-APK trace: every
// span every shard recorded, grouped by trace id in sorted order. The
// topology-dependent control spans (partition and run spans on the fleet
// trace id) are deliberately excluded — they live in the control view —
// so this export is byte-identical for the same seed at any shard/worker
// count.
func (f *Federator) WriteTraceJSONL(w io.Writer) error {
	f.mu.Lock()
	var lines []telemetry.SpanLine
	for _, p := range f.partitionOrder() {
		lines = append(lines, f.partitions[p].apkSpans...)
	}
	f.mu.Unlock()
	return telemetry.WriteTraceJSONL(w, lines)
}

// ControlSpans returns the fleet-trace control spans workers submitted
// (their per-partition run spans), for merging with the coordinator's own
// partition spans into the control-trace view.
func (f *Federator) ControlSpans() []telemetry.SpanLine {
	f.mu.Lock()
	defer f.mu.Unlock()
	var lines []telemetry.SpanLine
	for _, p := range f.partitionOrder() {
		lines = append(lines, f.partitions[p].ctl...)
	}
	return lines
}

// Counts are the headline pipeline counters extracted from an exposition.
type Counts struct {
	APKs        int64 `json:"apks"`
	CacheHits   int64 `json:"cacheHits"`
	Retries     int64 `json:"retries"`
	Quarantined int64 `json:"quarantined"`
}

func countsOf(snap *telemetry.Snapshot) Counts {
	return Counts{
		APKs:        counterSeries(snap, famStageItems, "stage", "download", "dir", "out"),
		CacheHits:   counterSeries(snap, famCache, "result", "hit"),
		Retries:     snap.Family(famRetries).Total(),
		Quarantined: snap.Family(famStageQuar).Total(),
	}
}

// RollupCounts extracts the fleet-wide headline counters.
func (f *Federator) RollupCounts() Counts { return countsOf(f.Rollup()) }

// PartitionCounts extracts one accepted partition's headline counters,
// the worker that completed it, and the coordinator-measured wall time.
func (f *Federator) PartitionCounts(partition int) (c Counts, worker string, wall time.Duration, ok bool) {
	f.mu.Lock()
	pd := f.partitions[partition]
	f.mu.Unlock()
	if pd == nil {
		return Counts{}, "", 0, false
	}
	return countsOf(pd.delta), pd.worker, pd.wall, true
}

// WorkerCounts extracts a worker's live headline counters from its latest
// scraped or flushed snapshot. ok reports whether any snapshot exists.
func (f *Federator) WorkerCounts(name string) (Counts, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	wd := f.workers[name]
	if wd == nil || wd.snap == nil {
		return Counts{}, false
	}
	return countsOf(wd.snap), true
}

// WorkerInfo is the live view of one worker process.
type WorkerInfo struct {
	Name       string
	MetricsURL string
	LastSeen   time.Time
	ScrapeErr  string
	Flushed    bool
}

// Workers lists registered workers sorted by name.
func (f *Federator) Workers() []WorkerInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	infos := make([]WorkerInfo, 0, len(f.workers))
	for name, wd := range f.workers {
		infos = append(infos, WorkerInfo{
			Name: name, MetricsURL: wd.metricsURL, LastSeen: wd.lastSeen,
			ScrapeErr: wd.scrapeErr, Flushed: wd.finalFlush,
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// StageQuantiles estimates p50/p95/p99 per-item latency per pipeline
// stage from the rollup's fixed-bucket histograms.
func (f *Federator) StageQuantiles() map[string]Quantiles {
	return StageQuantiles(f.Rollup())
}

// StageQuantiles extracts per-stage latency quantiles from any snapshot
// carrying pipeline_stage_latency_seconds.
func StageQuantiles(snap *telemetry.Snapshot) map[string]Quantiles {
	fam := snap.Family(famStageLatency)
	if fam == nil {
		return nil
	}
	out := make(map[string]Quantiles)
	for _, stage := range []string{"metadata", "download", "analyze", "lint", "urls"} {
		if q, ok := QuantilesOf(fam.Series("stage", stage)); ok {
			out[stage] = q
		}
	}
	return out
}

// Quantiles is one latency distribution summarised at the conventional
// operator percentiles.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// QuantilesOf summarises one histogram series. ok reports whether the
// series exists and is non-empty.
func QuantilesOf(series *telemetry.SeriesSnapshot) (Quantiles, bool) {
	p50, ok1 := series.Quantile(0.50)
	p95, ok2 := series.Quantile(0.95)
	p99, ok3 := series.Quantile(0.99)
	if !ok1 || !ok2 || !ok3 {
		return Quantiles{}, false
	}
	return Quantiles{P50: p50, P95: p95, P99: p99}, true
}

// counterSeries reads one series of a counter family by its labels.
func counterSeries(snap *telemetry.Snapshot, name string, labels ...string) int64 {
	if m := snap.Family(name).Series(labels...); m != nil && m.Value != nil {
		return *m.Value
	}
	return 0
}
