package shard

import "repro/internal/telemetry"

// Metric families exported by the coordinator control plane.
const (
	famLease    = "shard_lease_total" // labels: event=grant|renew|expire|reject
	famInflight = "shard_partitions_inflight"
	famResults  = "shard_results_total" // labels: status=accepted|stale|mismatch
	famMerge    = "shard_merge_seconds"
)

// coordMetrics resolves the coordinator's metric handles. As with the
// pipeline, a nil hub gets a private one so the control plane never
// branches on instrumentation.
type coordMetrics struct {
	grants, renewals, expiries, rejects        *telemetry.Counter
	inflight                                   *telemetry.Gauge
	accepted, stale, mismatch, snapshotRejects *telemetry.Counter
	mergeSeconds                               *telemetry.Histogram
}

func newCoordMetrics(hub *telemetry.Hub) *coordMetrics {
	if hub == nil {
		hub = telemetry.New(telemetry.Options{})
	}
	lease := func(event string) *telemetry.Counter {
		return hub.Counter(famLease, "work-lease lifecycle events by type", "event", event)
	}
	result := func(status string) *telemetry.Counter {
		return hub.Counter(famResults, "per-shard result submissions by outcome", "status", status)
	}
	return &coordMetrics{
		grants:   lease("grant"),
		renewals: lease("renew"),
		expiries: lease("expire"),
		rejects:  lease("reject"),
		inflight: hub.Gauge(famInflight, "partitions currently leased to a live worker"),
		accepted: result("accepted"),
		stale:    result("stale"),
		mismatch: result("mismatch"),
		// bad_snapshot counts accepted results whose attached metrics
		// delta failed to decode or merge (the report is still merged).
		snapshotRejects: result("bad_snapshot"),
		mergeSeconds:    hub.Histogram(famMerge, "wall time of the final result merge in seconds", nil),
	}
}
