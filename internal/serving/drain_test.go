package serving

import (
	"context"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/measure"
)

func TestDrainFlushesInFlightThenRefuses(t *testing.T) {
	gs := newGateSink()
	svc := NewService(Config{Sink: gs, QueueDepth: 16, Workers: 2})
	h := svc.Handler()

	const accepted = 5
	for i := 0; i < accepted; i++ {
		if rec := postBatch(t, h, "com.a", beacons(2, "com.a")); rec.Code != http.StatusNoContent {
			t.Fatalf("POST %d = %d", i, rec.Code)
		}
	}

	drained := make(chan error, 1)
	go func() { drained <- svc.Drain(context.Background()) }()

	// New traffic after drain start is visibly refused with 503. Probes
	// racing the drain flag may still be accepted; they are counted, never
	// dropped.
	deadline := time.Now().Add(5 * time.Second)
	probeAccepted := 0
	for {
		rec := postBatch(t, h, "com.b", beacons(1, "com.b"))
		if rec.Code == http.StatusServiceUnavailable {
			if rec.Header().Get("Retry-After") == "" {
				t.Error("drain refusal missing Retry-After")
			}
			break
		}
		if rec.Code == http.StatusNoContent {
			probeAccepted++
		}
		if time.Now().After(deadline) {
			t.Fatal("drain refusal never observed")
		}
		time.Sleep(time.Millisecond)
	}

	// The gate still holds the workers: drain must not have completed.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v while batches were still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(gs.gate)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never completed after the sink unblocked")
	}

	// Every beacon accepted before drain start was flushed and counted.
	wantBeacons := int64(accepted*2 + probeAccepted)
	if got := gs.agg.Beacons(); got != wantBeacons {
		t.Errorf("flushed beacons = %d, want %d", got, wantBeacons)
	}
	st := svc.Stats()
	if want := int64(accepted + probeAccepted); st.FlushedBatches != want || st.IngestRequests != want {
		t.Errorf("stats = %+v; want %d flushed == ingested", st, want)
	}
	if st.Shed[ShedDraining] == 0 {
		t.Error("draining sheds not counted")
	}
}

func TestDrainIsIdempotent(t *testing.T) {
	svc := NewService(Config{Sink: measure.NewServer()})
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainHonorsContext(t *testing.T) {
	gs := newGateSink()
	svc := NewService(Config{Sink: gs, Workers: 1})
	if rec := postBatch(t, svc.Handler(), "com.a", beacons(1, "com.a")); rec.Code != http.StatusNoContent {
		t.Fatal("seed POST failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); err == nil {
		t.Error("Drain with a blocked sink and expired context returned nil")
	}
	close(gs.gate)
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointShutdownRefusesNewConnections(t *testing.T) {
	ms := measure.NewServer()
	svc := NewService(Config{Sink: ms, Pages: ms.Handler()})
	ep, err := Listen("127.0.0.1:0", svc.Handler())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+ep.Addr+"/collect", "application/json",
		strings.NewReader(`[{"interface":"I","method":"m"}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("live POST = %d", resp.StatusCode)
	}
	if err := ep.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// After shutdown, the socket refuses outright: connection-level, not 503.
	if conn, err := net.DialTimeout("tcp", ep.Addr, time.Second); err == nil {
		conn.Close()
		t.Error("dial succeeded after Shutdown")
	}
	// And the beacon accepted before shutdown was flushed, not lost.
	if got := ms.Beacons(); got != 1 {
		t.Errorf("traces after drain = %d, want 1", got)
	}
}

func TestEndpointIsHardened(t *testing.T) {
	srv := NewHTTPServer(http.NewServeMux())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 ||
		srv.IdleTimeout <= 0 || srv.MaxHeaderBytes <= 0 {
		t.Errorf("NewHTTPServer missing limits: %+v", srv)
	}
}
