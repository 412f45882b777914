package retry

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// recordingSleeper captures requested delays without sleeping.
type recordingSleeper struct{ delays []time.Duration }

func (r *recordingSleeper) sleep(ctx context.Context, d time.Duration) error {
	r.delays = append(r.delays, d)
	return ctx.Err()
}

func TestNilPolicySingleAttempt(t *testing.T) {
	calls := 0
	_, err := Do(context.Background(), nil, func(context.Context) (int, error) {
		calls++
		return 0, errors.New("boom")
	})
	if err == nil || calls != 1 {
		t.Fatalf("calls = %d, err = %v; want one failing attempt", calls, err)
	}
}

func TestRetriesUntilSuccess(t *testing.T) {
	rs := &recordingSleeper{}
	p := &Policy{MaxAttempts: 5, Seed: 42, Sleep: rs.sleep, Metrics: &Metrics{}}
	calls := 0
	v, err := Do(context.Background(), p, func(context.Context) (string, error) {
		calls++
		if calls < 3 {
			return "", Transient(errors.New("flaky"))
		}
		return "ok", nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("Do = %q, %v", v, err)
	}
	if calls != 3 || len(rs.delays) != 2 {
		t.Errorf("calls = %d, sleeps = %d; want 3 and 2", calls, len(rs.delays))
	}
	if got := p.Metrics.Attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if got := p.Metrics.Retries.Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := p.Metrics.Failures.Load(); got != 0 {
		t.Errorf("failures = %d, want 0", got)
	}
}

func TestBackoffWithinJitterCap(t *testing.T) {
	rs := &recordingSleeper{}
	p := &Policy{
		MaxAttempts: 6, BaseDelay: 100 * time.Millisecond,
		MaxDelay: 400 * time.Millisecond, Seed: 7, Sleep: rs.sleep,
	}
	_, err := Do(context.Background(), p, func(context.Context) (int, error) {
		return 0, Transient(errors.New("always"))
	})
	if err == nil {
		t.Fatal("exhausted retries should fail")
	}
	caps := []time.Duration{100, 200, 400, 400, 400} // ms, clamped at MaxDelay
	if len(rs.delays) != len(caps) {
		t.Fatalf("sleeps = %d, want %d", len(rs.delays), len(caps))
	}
	for i, d := range rs.delays {
		if d < 0 || d >= caps[i]*time.Millisecond {
			t.Errorf("delay[%d] = %v outside [0, %v)", i, d, caps[i]*time.Millisecond)
		}
	}
}

func TestDeterministicJitterSchedule(t *testing.T) {
	schedule := func() []time.Duration {
		rs := &recordingSleeper{}
		p := &Policy{MaxAttempts: 5, Seed: 99, Sleep: rs.sleep}
		Do(context.Background(), p, func(context.Context) (int, error) {
			return 0, Transient(errors.New("always"))
		})
		return rs.delays
	}
	a, b := schedule(), schedule()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("schedules differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("delay[%d] differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	p := &Policy{MaxAttempts: 5, Sleep: (&recordingSleeper{}).sleep, Metrics: &Metrics{}}
	calls := 0
	want := errors.New("bad request")
	_, err := Do(context.Background(), p, func(context.Context) (int, error) {
		calls++
		return 0, Permanent(want)
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, want) {
		t.Errorf("err = %v, want wrapped %v", err, want)
	}
	if got := p.Metrics.Failures.Load(); got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}
}

func TestWrappedClassificationSurvivesFmtErrorf(t *testing.T) {
	inner := Transient(errors.New("reset"))
	wrapped := fmt.Errorf("download foo: %w", inner)
	if !IsRetryable(wrapped) {
		t.Error("fmt-wrapped transient error lost its classification")
	}
	if IsRetryable(fmt.Errorf("x: %w", Permanent(errors.New("nope")))) {
		t.Error("fmt-wrapped permanent error became retryable")
	}
}

func TestContextErrorsNeverRetryable(t *testing.T) {
	if IsRetryable(context.Canceled) || IsRetryable(fmt.Errorf("op: %w", context.DeadlineExceeded)) {
		t.Error("context errors must not be retryable")
	}
}

func TestCancelledContextStopsRetrying(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &Policy{MaxAttempts: 10, Sleep: func(ctx context.Context, d time.Duration) error { return ctx.Err() }}
	calls := 0
	_, err := Do(ctx, p, func(context.Context) (int, error) {
		calls++
		if calls == 2 {
			cancel()
		}
		return 0, Transient(errors.New("flaky"))
	})
	if err == nil {
		t.Fatal("cancelled Do succeeded")
	}
	if calls > 3 {
		t.Errorf("calls = %d after cancellation, want <= 3", calls)
	}
}

func TestUnclassifiedErrorsRetryByDefault(t *testing.T) {
	p := &Policy{MaxAttempts: 3, Sleep: (&recordingSleeper{}).sleep}
	calls := 0
	Do(context.Background(), p, func(context.Context) (int, error) {
		calls++
		return 0, errors.New("plain")
	})
	if calls != 3 {
		t.Errorf("calls = %d, want 3 (plain errors retry)", calls)
	}
}

// TestWithMetricsCopiesEveryField sets every exported Policy field and
// asserts WithMetrics carries each one but Metrics, which it replaces, so a
// field added to Policy later cannot be dropped by the copy.
func TestWithMetricsCopiesEveryField(t *testing.T) {
	var p Policy
	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int64:
			fv.SetInt(int64(i + 1))
		case reflect.Float64:
			fv.SetFloat(float64(i) + 0.5)
		case reflect.Func:
			fv.Set(reflect.MakeFunc(f.Type, func([]reflect.Value) []reflect.Value { panic("not called") }))
		case reflect.Pointer:
			fv.Set(reflect.New(f.Type.Elem()))
		default:
			t.Fatalf("field %s: no test value for kind %s; extend this test", f.Name, fv.Kind())
		}
	}
	m := &Metrics{}
	cp := reflect.ValueOf(p.WithMetrics(m)).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		want, got := v.Field(i), cp.Field(i)
		if f.Name == "Metrics" {
			want = reflect.ValueOf(m)
		}
		switch want.Kind() {
		case reflect.Func, reflect.Pointer:
			if got.Pointer() != want.Pointer() {
				t.Errorf("WithMetrics: %s not carried over", f.Name)
			}
		default:
			if got.Interface() != want.Interface() {
				t.Errorf("WithMetrics: %s = %v, want %v", f.Name, got, want)
			}
		}
	}
	if (*Policy)(nil).WithMetrics(m) != nil {
		t.Error("nil policy: WithMetrics returned a policy")
	}
}
