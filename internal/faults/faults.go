// Package faults injects deterministic, seed-driven faults into the
// pipeline's service edges for chaos testing. Wrappers exist for the APK
// repository and metadata-source interfaces (transient errors, latency,
// truncated or corrupted downloads), for the result cache's blob store
// (load errors, corrupt blobs), and for an http.RoundTripper (truncated
// or bit-flipped response bodies beneath the client's integrity checks).
//
// Every fault decision is a pure function of (seed, operation, key,
// attempt number): the same seed replays the same faults regardless of
// goroutine scheduling, and a retried operation draws a fresh decision —
// so a transient-error rate r makes the k-th retry succeed with
// probability 1-r independently, exactly like a real flaky backend. That
// determinism is what lets the chaos tests assert byte-identical output
// between a faulted and a fault-free run.
package faults

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/retry"
	"repro/internal/telemetry"
)

// Config sets per-operation fault probabilities (each in [0,1]).
// Which rates apply depends on the wrapper: interface wrappers use
// ErrorRate and LatencyRate; the transport and blob-store wrappers add
// TruncateRate and CorruptRate, where damage is detectable downstream.
type Config struct {
	// Seed drives every fault decision; runs with equal seeds inject
	// identical faults.
	Seed int64
	// ErrorRate is the probability an operation fails with an injected
	// transient error.
	ErrorRate float64
	// LatencyRate is the probability an operation is delayed by Latency.
	LatencyRate float64
	Latency     time.Duration
	// TruncateRate is the probability a payload is cut short.
	TruncateRate float64
	// CorruptRate is the probability a payload is damaged in place.
	CorruptRate float64
	// Telemetry, when non-nil, counts every fault that actually fires into
	// faults_injected_total{class=error|latency|truncate|corrupt}. The
	// counts are as deterministic as the draws: same seed, same counters.
	Telemetry *telemetry.Hub
}

// injector derives per-(op, key, attempt) fault decisions.
type injector struct {
	cfg      Config
	mu       sync.Mutex
	attempts map[string]int
}

func newInjector(cfg Config) *injector {
	return &injector{cfg: cfg, attempts: make(map[string]int)}
}

// next advances the attempt counter for (op, key) and returns a draw
// bound to that attempt.
func (in *injector) next(op, key string) draw {
	in.mu.Lock()
	k := op + "\x00" + key
	in.attempts[k]++
	n := in.attempts[k]
	in.mu.Unlock()
	return draw{cfg: in.cfg, op: op, key: key, attempt: n}
}

// draw computes independent uniforms per fault class for one attempt.
type draw struct {
	cfg     Config
	op, key string
	attempt int
}

// injected counts one fired fault of the given class.
func (d draw) injected(class string) {
	d.cfg.Telemetry.Counter("faults_injected_total",
		"faults fired by the chaos injector, by class", "class", class).Inc()
}

// uniform hashes (seed, op, key, attempt, class) into [0, 1).
func (d draw) uniform(class string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d|%s", d.cfg.Seed, d.op, d.key, d.attempt, class)
	return float64(h.Sum64()>>11) / float64(uint64(1)<<53)
}

// delay sleeps the configured latency when this attempt drew one,
// honouring ctx.
func (d draw) delay(ctx context.Context) error {
	if d.cfg.LatencyRate <= 0 || d.uniform("latency") >= d.cfg.LatencyRate {
		return nil
	}
	d.injected("latency")
	lat := d.cfg.Latency
	if lat <= 0 {
		lat = time.Millisecond
	}
	if ctx == nil {
		time.Sleep(lat)
		return nil
	}
	t := time.NewTimer(lat)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// err returns the injected transient error for this attempt, or nil.
func (d draw) err() error {
	if d.cfg.ErrorRate > 0 && d.uniform("error") < d.cfg.ErrorRate {
		d.injected("error")
		return retry.Transient(fmt.Errorf("faults: injected failure (%s %s attempt %d)", d.op, d.key, d.attempt))
	}
	return nil
}

// fail applies an interface wrapper's faults for this attempt: the
// latency, then the transient error, if it drew them.
func (d draw) fail(ctx context.Context) error {
	if err := d.delay(ctx); err != nil {
		return err
	}
	return d.err()
}

// truncate cuts b when this attempt drew a truncation; the cut point is
// hash-derived but always strictly shorter than the input.
func (d draw) truncate(b []byte) []byte {
	if d.cfg.TruncateRate <= 0 || d.uniform("truncate") >= d.cfg.TruncateRate || len(b) == 0 {
		return b
	}
	d.injected("truncate")
	n := int(d.uniform("truncate-point") * float64(len(b)))
	if n >= len(b) {
		n = len(b) - 1
	}
	return b[:n]
}

// corrupt flips one hash-chosen byte of a copy of b when this attempt
// drew a corruption.
func (d draw) corrupt(b []byte) []byte {
	if d.cfg.CorruptRate <= 0 || d.uniform("corrupt") >= d.cfg.CorruptRate || len(b) == 0 {
		return b
	}
	d.injected("corrupt")
	out := append([]byte(nil), b...)
	out[int(d.uniform("corrupt-at")*float64(len(out)))%len(out)] ^= 0xff
	return out
}
