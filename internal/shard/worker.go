package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/androzoo"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/playstore"
	"repro/internal/resultcache"
	"repro/internal/retry"
	"repro/internal/serving"
	"repro/internal/telemetry"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

// WorkerConfig parameterises one worker.
type WorkerConfig struct {
	// Coordinator is the control-plane base URL (-join ADDR).
	Coordinator string
	// Local, when non-nil, is the coordinator in this process: the worker
	// leases and submits through direct calls to its ledger instead of
	// HTTP, so its partition results reach the merge unencoded.
	// Coordinator is then unused.
	Local *Coordinator
	// Name identifies this worker on leases; it must be unique within the
	// run (the CLI defaults to host+pid).
	Name string
	// HTTP is the control-plane client (nil = a 60s-timeout default).
	HTTP *http.Client
	// Retry, when non-nil, wraps control-plane calls in retries with
	// backoff. A partition's pipeline retries repository and store calls
	// under the spec's Retries budget instead.
	Retry *retry.Policy
	// Poll is the wait between lease polls when every partition is leased
	// out (0 = 100ms).
	Poll time.Duration
	// Services constructs the repository and metadata source for a run
	// spec. Nil uses the androzoo/playstore HTTP clients against
	// spec.RepoURL/StoreURL; tests inject in-process fakes here.
	Services func(spec RunSpec) (pipeline.Repository, pipeline.MetadataSource, error)
	// CacheEntries bounds the in-memory tier of the shared persistent
	// result cache (0 = 4096). The blob tier under spec.CacheDir is
	// unbounded either way.
	CacheEntries int
	// MetricsAddr, when non-empty, is the listen address for this
	// worker's live registry (e.g. "127.0.0.1:0"), served as /metrics.json
	// alone and announced to the coordinator for /fleet/status scrapes.
	MetricsAddr string
}

// Worker executes partitions leased from a coordinator until the run is
// done. Workers are stateless between leases: everything durable lives in
// the shared cache directory, which is what lets a re-issued partition
// resume on any peer.
type Worker struct {
	cfg  WorkerConfig
	hc   *http.Client
	base string

	// hub is the worker's telemetry hub, built from the spec's seed
	// (seed-derived timing, tracing on), so every worker observes with the
	// same clock discipline whatever process it runs in; faults is the
	// spec's fault configuration, counting into it. metricsURL is the
	// announced live endpoint.
	hub        *telemetry.Hub
	faults     faults.Config
	metricsURL string

	// Completed counts partitions this worker finished (read after Run for
	// tests and CLI reporting).
	completed atomic.Int64
}

// NewWorker validates the configuration.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" && cfg.Local == nil {
		return nil, errors.New("shard: worker needs a coordinator address")
	}
	if cfg.Name == "" {
		return nil, errors.New("shard: worker needs a name")
	}
	hc := cfg.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 60 * time.Second}
	}
	return &Worker{cfg: cfg, hc: hc, base: strings.TrimRight(cfg.Coordinator, "/")}, nil
}

// Completed reports how many partitions this worker finished.
func (w *Worker) Completed() int { return int(w.completed.Load()) }

// errLeaseLost marks a partition abandoned because the coordinator expired
// or re-issued its lease; the worker moves on to the next lease.
var errLeaseLost = errors.New("shard: lease lost")

// Run joins the coordinator and executes leased partitions until the
// coordinator reports the scan done, the context is cancelled, or a
// non-recoverable error occurs. Losing a lease is not an error — the
// partition is someone else's now.
func (w *Worker) Run(ctx context.Context) error {
	var spec RunSpec
	_, err := w.call(ctx, "GET", "/v1/spec", nil, &spec)
	if err != nil {
		return fmt.Errorf("shard: fetch spec: %w", err)
	}
	if w.faults, err = faults.ParseSpec(spec.Faults); err != nil {
		return fmt.Errorf("shard: spec: %w", err)
	}
	var timing telemetry.Timing = telemetry.SeededTiming{Seed: spec.Seed}
	if spec.Wallclock {
		timing = telemetry.RealTiming{}
	}
	w.hub = telemetry.New(telemetry.Options{Timing: timing, Tracing: true})
	w.faults.Telemetry = w.hub
	if w.cfg.MetricsAddr != "" {
		// The one path scrapeURL accepts: a partition's spans and its final
		// registry reach the run's outputs through the coordinator.
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics.json", func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.hub.Registry().Snapshot().WriteJSON(rw)
		})
		srv, err := serving.Listen(w.cfg.MetricsAddr, mux)
		if err != nil {
			return fmt.Errorf("shard: worker metrics endpoint: %w", err)
		}
		defer srv.Close()
		w.metricsURL = "http://" + srv.Addr + "/metrics.json"
	}
	// Graceful-shutdown flush: however Run exits — done, cancelled,
	// failed — push the final registry snapshot so workers that exit
	// between leases still report. A fresh short-lived context keeps
	// the flush alive through the cancellation that ended the run.
	defer func() {
		flushCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		w.flushSnapshot(flushCtx)
	}()
	services := w.cfg.Services
	if services == nil {
		// One service client per spec, apart from the control-plane
		// client: its idle pool keeps a connection per pipeline worker and
		// host, where net/http's default of 2 makes further workers dial.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = pipeline.PoolSize(spec.Workers)
		defer tr.CloseIdleConnections()
		services = w.httpServices(tr)
	}
	poll := w.cfg.Poll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		var grant LeaseGrant
		code, err := w.call(ctx, "POST", "/v1/lease",
			leaseRequest{Worker: w.cfg.Name, MetricsURL: w.metricsURL}, &grant)
		if err != nil {
			return fmt.Errorf("shard: lease: %w", err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("shard: lease: unexpected status %d", code)
		}
		switch {
		case grant.Done:
			return nil
		case grant.Wait:
			select {
			case <-time.After(poll):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if err := w.runPartition(ctx, spec, grant, services); err != nil {
			if errors.Is(err, errLeaseLost) {
				continue
			}
			return err
		}
		w.completed.Add(1)
	}
}

// runPartition scans one leased partition over the services and streams
// the result back.
func (w *Worker) runPartition(ctx context.Context, spec RunSpec, grant LeaseGrant,
	services func(RunSpec) (pipeline.Repository, pipeline.MetadataSource, error)) error {
	repo, meta, err := services(spec)
	if err != nil {
		return fmt.Errorf("shard: partition %d services: %w", grant.Partition, err)
	}
	// Errors and latency around both services, drawn afresh per partition.
	if fc := w.faults; fc.ErrorRate > 0 || fc.LatencyRate > 0 {
		svc := faults.Config{Seed: fc.Seed, ErrorRate: fc.ErrorRate,
			LatencyRate: fc.LatencyRate, Latency: fc.Latency, Telemetry: fc.Telemetry}
		repo = faults.NewRepository(repo, svc)
		meta = faults.NewMetadataSource(meta, svc)
	}
	repo = &partitionRepository{
		inner:   repo,
		part:    grant.Partition,
		shards:  spec.Shards,
		latency: spec.DownloadLatency,
	}

	// The partition runs against the worker hub and its contribution is
	// captured as a registry snapshot delta + trace spans, measured from
	// marks taken here. The pipeline's retry policy is fresh per partition,
	// so the federated retry counters carry only the deterministic
	// per-package traffic, never this worker's scheduling-dependent lease
	// and renew calls.
	cfg, err := pipelineConfig(spec)
	if err != nil {
		return fmt.Errorf("shard: partition %d: %w", grant.Partition, err)
	}
	hub := w.hub
	cfg.Telemetry = hub
	before := hub.Registry().Snapshot()
	traceMark := hub.Tracer().Mark()
	runSpan := hub.Trace(grant.TraceID).Child(grant.Parent, "run:"+grant.Tag, "worker", w.cfg.Name)
	if spec.CacheDir != "" {
		store, err := resultcache.NewDirStore(spec.CacheDir)
		if err != nil {
			return fmt.Errorf("shard: partition %d cache: %w", grant.Partition, err)
		}
		var blobs resultcache.BlobStore = store
		if fc := w.faults; fc.ErrorRate > 0 || fc.CorruptRate > 0 {
			// Load errors and corrupt blobs: the cache's purge-on-corrupt
			// path turns both into recomputes.
			blobs = faults.NewStore(store, faults.Config{Seed: fc.Seed,
				ErrorRate: fc.ErrorRate, CorruptRate: fc.CorruptRate, Telemetry: fc.Telemetry})
		}
		entries := w.cfg.CacheEntries
		if entries <= 0 {
			entries = 4096
		}
		cfg.Cache = resultcache.NewPersistent[pipeline.Analysis](entries, blobs, resultcache.JSONCodec[pipeline.Analysis]{})
	}

	pipe := pipeline.New(repo, meta, cfg)
	if spec.ConfigKey != "" && pipe.ConfigKey() != spec.ConfigKey {
		return fmt.Errorf("shard: partition %d: analysis configuration fingerprint %q does not match coordinator's %q",
			grant.Partition, pipe.ConfigKey(), spec.ConfigKey)
	}

	// Renew at TTL/3 for as long as the scan runs; a rejected renewal
	// means the lease expired under us — cancel the scan, the partition
	// belongs to a peer now.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	renewDone := make(chan struct{})
	var leaseLost atomic.Bool
	ttl := grant.TTL
	if ttl <= 0 {
		ttl = spec.TTL()
	}
	go func() {
		defer close(renewDone)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
				var ok map[string]bool
				code, err := w.call(runCtx, "POST", "/v1/renew",
					renewRequest{Worker: w.cfg.Name, Partition: grant.Partition}, &ok)
				if err == nil && code == http.StatusGone {
					leaseLost.Store(true)
					cancelRun()
					return
				}
			}
		}
	}()

	res, runErr := pipe.Run(runCtx)
	cancelRun()
	<-renewDone
	if leaseLost.Load() {
		runSpan.SetAttr("outcome", "lease-lost")
		runSpan.End()
		return errLeaseLost
	}
	if runErr != nil {
		runSpan.SetAttr("outcome", "error")
		runSpan.End()
		return fmt.Errorf("shard: partition %d: %w", grant.Partition, runErr)
	}
	runSpan.SetAttr("outcome", "ok")
	runSpan.End()

	delta, err := json.Marshal(hub.Registry().Snapshot().Sub(before))
	if err != nil {
		return fmt.Errorf("shard: partition %d snapshot: %w", grant.Partition, err)
	}
	req := resultRequest{
		Worker:    w.cfg.Name,
		Partition: grant.Partition,
		ConfigKey: pipe.ConfigKey(),
		Result:    res,
		Metrics:   delta,
		Spans:     hub.Tracer().SpansSince(traceMark),
	}

	code, err := w.call(ctx, "POST", "/v1/result", req, &struct{}{})
	switch {
	case err != nil:
		return fmt.Errorf("shard: partition %d submit: %w", grant.Partition, err)
	case code == http.StatusGone:
		return errLeaseLost
	case code != http.StatusOK:
		return fmt.Errorf("shard: partition %d submit: unexpected status %d", grant.Partition, code)
	}
	return nil
}

// flushSnapshot pushes the worker's cumulative registry to the
// coordinator — the graceful-shutdown path of the federation plane. Best
// effort: a dead coordinator just means the snapshot is lost with it.
func (w *Worker) flushSnapshot(ctx context.Context) {
	metrics, err := json.Marshal(w.hub.Registry().Snapshot())
	if err != nil {
		return
	}
	w.call(ctx, "POST", "/v1/snapshot",
		snapshotRequest{Worker: w.cfg.Name, Metrics: metrics}, &struct{}{})
}

// pipelineConfig builds the analysis configuration every worker runs
// spec's partitions with; ConfigKey fingerprints the same build. The zero
// filter scans the paper's selection, as core.NewStaticStudy does, not the
// whole snapshot.
func pipelineConfig(spec RunSpec) (pipeline.Config, error) {
	cfg := pipeline.Config{
		MinDownloads:   spec.MinDownloads,
		UpdatedAfter:   spec.UpdatedAfter,
		Workers:        spec.Workers,
		MaxFailureFrac: spec.MaxFailureFrac,
	}
	if cfg.MinDownloads == 0 {
		cfg.MinDownloads = corpus.MinDownloads
	}
	if cfg.UpdatedAfter.IsZero() {
		cfg.UpdatedAfter = corpus.UpdateCutoff
	}
	if spec.Lint || spec.LintRules != nil {
		lint, err := webviewlint.New(webviewlint.Config{Rules: spec.LintRules})
		if err != nil {
			return cfg, fmt.Errorf("lint config: %w", err)
		}
		cfg.Lint = lint
	}
	if spec.URLs {
		cfg.URLs = urlextract.New(urlextract.Config{})
	}
	if spec.Retries > 0 {
		cfg.Retry = &retry.Policy{MaxAttempts: spec.Retries + 1, Metrics: &retry.Metrics{}}
	}
	return cfg, nil
}

// ConfigKey fingerprints the analysis configuration a worker builds from
// spec: what a coordinator serves as RunSpec.ConfigKey.
func ConfigKey(spec RunSpec) (string, error) {
	cfg, err := pipelineConfig(spec)
	if err != nil {
		return "", err
	}
	return pipeline.New(nil, nil, cfg).ConfigKey(), nil
}

// httpServices dials the repository and store over HTTP through tr, the
// way a standalone worker process reaches the real services. The spec's
// payload damage rides beneath the AndroZoo client's Content-Length and
// digest checks, which turn it into retryable errors.
func (w *Worker) httpServices(tr http.RoundTripper) func(RunSpec) (pipeline.Repository, pipeline.MetadataSource, error) {
	return func(spec RunSpec) (pipeline.Repository, pipeline.MetadataSource, error) {
		if spec.RepoURL == "" || spec.StoreURL == "" {
			return nil, nil, errors.New("spec names no repoUrl/storeUrl and the worker has no injected services")
		}
		az := tr
		if fc := w.faults; fc.TruncateRate > 0 || fc.CorruptRate > 0 {
			az = faults.NewTransport(tr, faults.Config{Seed: fc.Seed,
				TruncateRate: fc.TruncateRate, CorruptRate: fc.CorruptRate, Telemetry: fc.Telemetry})
		}
		// No client-side retry: the pipeline is the one retry layer.
		return androzoo.NewClient(spec.RepoURL, &http.Client{Timeout: 60 * time.Second, Transport: az}),
			playstore.NewClient(spec.StoreURL, &http.Client{Timeout: 60 * time.Second, Transport: tr}), nil
	}
}

// call performs one control-plane request, retrying transient failures
// under the worker's policy. Non-5xx statuses are outcomes, not errors:
// the caller branches on the returned code (e.g. 410 Gone = lease lost).
func (w *Worker) call(ctx context.Context, method, path string, in, out any) (int, error) {
	if c := w.cfg.Local; c != nil {
		return c.serve(in, out), nil
	}
	type outcome struct{ code int }
	res, err := retry.Do(ctx, w.cfg.Retry, func(ctx context.Context) (outcome, error) {
		code, err := w.callOnce(ctx, method, path, in, out)
		if err != nil {
			return outcome{}, retry.Transient(err)
		}
		if code >= 500 {
			return outcome{code}, retry.Transient(fmt.Errorf("shard: %s %s: status %d", method, path, code))
		}
		return outcome{code}, nil
	})
	if err != nil {
		return 0, err
	}
	return res.code, nil
}

func (w *Worker) callOnce(ctx context.Context, method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(out); err != nil {
			return 0, fmt.Errorf("decode %s: %w", path, err)
		}
	} else {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	}
	return resp.StatusCode, nil
}

// partitionRepository restricts a repository to one hash partition of its
// snapshot and models the per-APK transfer latency of the real network
// repository, so shard counts trade off against genuine download wait.
type partitionRepository struct {
	inner   pipeline.Repository
	part    int
	shards  int
	latency time.Duration
}

func (r *partitionRepository) List(ctx context.Context) ([]string, error) {
	pkgs, err := r.inner.List(ctx)
	if err != nil || r.shards <= 1 {
		return pkgs, err
	}
	kept := pkgs[:0]
	for _, pkg := range pkgs {
		if PartitionOf(pkg, r.shards) == r.part {
			kept = append(kept, pkg)
		}
	}
	return kept, nil
}

func (r *partitionRepository) Download(ctx context.Context, pkg string) ([]byte, error) {
	if r.latency > 0 {
		select {
		case <-time.After(r.latency):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return r.inner.Download(ctx, pkg)
}
