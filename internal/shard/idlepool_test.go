package shard_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/androzoo"
	"repro/internal/corpus"
	"repro/internal/playstore"
	"repro/internal/shard"
)

// TestServiceClientsKeepAConnectionPerWorker runs a worker over the HTTP
// AndroZoo and Play Store services with 8 pipeline workers at scale 2000
// and counts the connections the Play Store accepts. The worker's service
// client keeps an idle connection per pipeline worker, so the count stays
// within 2 × workers however many lookups the run makes; with net/http's
// default of 2 idle connections per host it grows with the lookups.
func TestServiceClientsKeepAConnectionPerWorker(t *testing.T) {
	const workers = 8
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	az := httptest.NewServer(androzoo.NewServer(c).Handler())
	defer az.Close()
	ps := httptest.NewUnstartedServer(playstore.NewServer(c).Handler())
	var conns atomic.Int64
	ps.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ps.Start()
	defer ps.Close()

	spec := fleetSpec(1, 1)
	spec.Lint, spec.URLs = false, false
	spec.Workers = workers
	spec.RepoURL, spec.StoreURL = az.URL, ps.URL
	coord, srv := startCoordinator(t, shard.CoordinatorConfig{Spec: spec})
	w, err := shard.NewWorker(shard.WorkerConfig{Coordinator: srv.URL, Name: "worker", Poll: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	res, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("coordinator wait: %v", err)
	}
	lookups := res.Funnel.Snapshot
	if lookups < 1000 {
		t.Fatalf("%d lookups: too few to show pool overflow", lookups)
	}
	n := conns.Load()
	t.Logf("%d metadata lookups dialed %d Play Store connections", lookups, n)
	if n > 2*workers {
		t.Errorf("%d metadata lookups at %d workers dialed %d Play Store connections, want at most %d",
			lookups, workers, n, 2*workers)
	}
}
