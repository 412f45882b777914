// Package retry implements the fault-tolerance primitives the pipeline's
// network edges share: a generic retrying executor with exponential
// backoff and full jitter, error classification (transient failures are
// retried, permanent ones surface immediately), and atomic metrics.
//
// Everything nondeterministic is injectable — the jitter RNG is seeded
// and the sleeper is a function value — so tests drive the exact retry
// schedule without wall-clock time, and a seeded chaos run replays the
// same schedule every time.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Default backoff parameters, used when the corresponding Policy field is
// zero. They follow the "full jitter" scheme: attempt n sleeps a uniform
// random duration in [0, min(MaxDelay, BaseDelay·Multiplier^n)).
const (
	DefaultBaseDelay  = 100 * time.Millisecond
	DefaultMaxDelay   = 5 * time.Second
	DefaultMultiplier = 2.0
)

// Metrics counts retry traffic across every Do call sharing the struct.
// All fields are atomic, so one Metrics can be shared by concurrent
// policies (e.g. one per backend) to observe a whole run.
type Metrics struct {
	// Attempts counts operation invocations, including first tries.
	Attempts atomic.Int64
	// Retries counts re-invocations after a retryable failure.
	Retries atomic.Int64
	// Failures counts operations that gave up (exhausted attempts, hit a
	// permanent error, or lost their context).
	Failures atomic.Int64

	// Mirror, when its counters are set, duplicates every increment into a
	// telemetry registry so a live scrape sees retry traffic as it happens.
	// Set before the Metrics is shared; nil counters are no-ops.
	Mirror Mirror
}

// Mirror holds the telemetry counters Metrics duplicates into.
type Mirror struct {
	Attempts *telemetry.Counter
	Retries  *telemetry.Counter
	Failures *telemetry.Counter
}

func (m *Metrics) attempt() {
	if m != nil {
		m.Attempts.Add(1)
		m.Mirror.Attempts.Inc()
	}
}

func (m *Metrics) retried() {
	if m != nil {
		m.Retries.Add(1)
		m.Mirror.Retries.Inc()
	}
}

func (m *Metrics) failed() {
	if m != nil {
		m.Failures.Add(1)
		m.Mirror.Failures.Inc()
	}
}

// Fold adds o's counts into m n times, mirror included. An operation that
// does the work of n others (one request carrying n items) counts into o
// and is folded in once per item, so m reads the same whether the items
// travelled together or apart.
func (m *Metrics) Fold(o *Metrics, n int) {
	if m == nil || o == nil {
		return
	}
	k := int64(n)
	a, r, f := k*o.Attempts.Load(), k*o.Retries.Load(), k*o.Failures.Load()
	m.Attempts.Add(a)
	m.Retries.Add(r)
	m.Failures.Add(f)
	m.Mirror.Attempts.Add(a)
	m.Mirror.Retries.Add(r)
	m.Mirror.Failures.Add(f)
}

// Policy parameterises Do. The zero value (or a nil pointer) means a
// single attempt with no backoff; set MaxAttempts > 1 to retry.
// A Policy is safe for concurrent use.
type Policy struct {
	// MaxAttempts is the total number of invocations allowed, first try
	// included; values <= 1 mean exactly one attempt.
	MaxAttempts int
	// BaseDelay, MaxDelay and Multiplier shape the exponential backoff;
	// zero values take the package defaults.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Seed seeds the jitter RNG, making the backoff schedule reproducible.
	Seed int64
	// Sleep waits between attempts; nil uses a context-aware timer.
	// Injecting a recorder here makes retry schedules testable without
	// wall-clock time.
	Sleep func(ctx context.Context, d time.Duration) error
	// Classify reports whether an error is worth retrying; nil uses
	// IsRetryable (transient unless marked Permanent or context-related).
	Classify func(error) bool
	// Metrics, when non-nil, accumulates attempt/retry/failure counts.
	Metrics *Metrics

	mu  sync.Mutex
	rng *rand.Rand
}

// WithMetrics returns a copy of p whose attempts count into m instead of
// p.Metrics: the same schedule, seed, sleeper and classifier, with its own
// jitter state. A nil p returns nil. Policy holds a mutex, so
// callers copy through here rather than by value.
func (p *Policy) WithMetrics(m *Metrics) *Policy {
	if p == nil {
		return nil
	}
	return &Policy{
		MaxAttempts: p.MaxAttempts,
		BaseDelay:   p.BaseDelay,
		MaxDelay:    p.MaxDelay,
		Multiplier:  p.Multiplier,
		Seed:        p.Seed,
		Sleep:       p.Sleep,
		Classify:    p.Classify,
		Metrics:     m,
	}
}

// Do invokes fn until it succeeds, a non-retryable error occurs, the
// context is done, or the policy's attempts are exhausted; it returns
// fn's last value. A nil policy performs exactly one attempt.
func Do[T any](ctx context.Context, p *Policy, fn func(context.Context) (T, error)) (T, error) {
	var zero T
	if p == nil {
		return fn(ctx)
	}
	attempts := p.MaxAttempts
	if attempts <= 1 {
		attempts = 1
	}
	classify := p.Classify
	if classify == nil {
		classify = IsRetryable
	}
	for i := 0; ; i++ {
		p.Metrics.attempt()
		v, err := fn(ctx)
		if err == nil {
			return v, nil
		}
		if i+1 >= attempts || ctx.Err() != nil || !classify(err) {
			p.Metrics.failed()
			return zero, err
		}
		p.Metrics.retried()
		if serr := p.sleep(ctx, p.backoff(i)); serr != nil {
			// The wait was cut short by the context; the operation's own
			// error is the informative one.
			p.Metrics.failed()
			return zero, err
		}
	}
}

// backoff returns the jittered delay before retry number i (0-based):
// uniform in [0, min(MaxDelay, BaseDelay·Multiplier^i)).
func (p *Policy) backoff(i int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = DefaultBaseDelay
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = DefaultMaxDelay
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = DefaultMultiplier
	}
	cap := float64(base)
	for j := 0; j < i; j++ {
		cap *= mult
		if cap >= float64(maxd) {
			cap = float64(maxd)
			break
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == nil {
		seed := p.Seed
		if seed == 0 {
			seed = 1
		}
		p.rng = rand.New(rand.NewSource(seed))
	}
	return time.Duration(p.rng.Float64() * cap)
}

func (p *Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// classified wraps an error with an explicit retryability verdict.
type classified struct {
	err       error
	retryable bool
}

func (c *classified) Error() string { return c.err.Error() }
func (c *classified) Unwrap() error { return c.err }

// Transient marks err as retryable: a failure expected to resolve on its
// own (5xx, connection reset, truncated body). Returns nil for nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, retryable: true}
}

// Permanent marks err as not worth retrying: the same request will keep
// failing (4xx, malformed input). Returns nil for nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, retryable: false}
}

// IsRetryable is the default classifier: context errors and errors marked
// Permanent are final; errors marked Transient — and, conservatively,
// unclassified ones — are retryable.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var c *classified
	if errors.As(err, &c) {
		return c.retryable
	}
	return true
}
