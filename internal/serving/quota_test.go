package serving

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/measure"
)

// fakeClock is an injectable quota clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestQuotaBucketRefill(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	q := newQuotaSet(10, 20, clk.now) // 10 beacons/s, burst 20

	if wait, ok := q.take("com.a", 20); !ok || wait != 0 {
		t.Fatalf("full-burst take = %v, %v", wait, ok)
	}
	wait, ok := q.take("com.a", 5)
	if ok {
		t.Fatal("empty bucket admitted a batch")
	}
	if wait != 500*time.Millisecond {
		t.Errorf("refill hint = %v, want 500ms (5 tokens at 10/s)", wait)
	}
	clk.advance(time.Second) // +10 tokens
	if _, ok := q.take("com.a", 10); !ok {
		t.Error("refilled bucket refused an affordable batch")
	}
	if _, ok := q.take("com.a", 1); ok {
		t.Error("bucket admitted beyond its refill")
	}
}

func TestQuotaTenantsAreIsolated(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	q := newQuotaSet(5, 5, clk.now)
	if _, ok := q.take("com.flood", 5); !ok {
		t.Fatal("initial burst refused")
	}
	if _, ok := q.take("com.flood", 1); ok {
		t.Fatal("flooding tenant not limited")
	}
	// The quiet tenant's bucket is untouched by the flood.
	if _, ok := q.take("com.quiet", 5); !ok {
		t.Error("quiet tenant starved by the flooding tenant")
	}
}

func TestQuotaOversizedBatchChargedAtBurst(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	q := newQuotaSet(10, 10, clk.now)
	// A batch larger than the burst is not unsatisfiable forever.
	if _, ok := q.take("com.a", 1000); !ok {
		t.Fatal("burst-sized charge refused on a full bucket")
	}
	clk.advance(time.Second)
	if _, ok := q.take("com.a", 1000); !ok {
		t.Error("oversized batch never admitted again")
	}
}

func TestQuotaDisabledWhenRateZero(t *testing.T) {
	q := newQuotaSet(0, 0, time.Now)
	for i := 0; i < 1000; i++ {
		if _, ok := q.take("com.a", 100); !ok {
			t.Fatal("disabled quota refused traffic")
		}
	}
}

func TestServiceQuotaShedsWithRefillHint(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	svc := NewService(Config{
		Sink:       measure.NewServer(),
		TenantRate: 4, TenantBurst: 4,
		Now: clk.now,
	})
	defer svc.Close()
	h := svc.Handler()

	if rec := postBatch(t, h, "com.flood", beacons(4, "com.flood")); rec.Code != http.StatusNoContent {
		t.Fatalf("burst POST = %d", rec.Code)
	}
	rec := postBatch(t, h, "com.flood", beacons(4, "com.flood"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota POST = %d, want 429", rec.Code)
	}
	// 4 tokens at 4/s = 1s, advised as integer seconds.
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	// The other tenant admits while the flooder is shed.
	if rec := postBatch(t, h, "com.quiet", beacons(2, "com.quiet")); rec.Code != http.StatusNoContent {
		t.Errorf("quiet tenant POST = %d, want 204", rec.Code)
	}
	st := svc.Stats()
	if st.Shed[ShedQuota] != 1 {
		t.Errorf("shed[quota] = %d, want 1", st.Shed[ShedQuota])
	}
	clk.advance(time.Second)
	if rec := postBatch(t, h, "com.flood", beacons(4, "com.flood")); rec.Code != http.StatusNoContent {
		t.Errorf("post-refill POST = %d, want 204", rec.Code)
	}
}
