package shard_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/androzoo"
	"repro/internal/corpus"
	"repro/internal/playstore"
	"repro/internal/shard"
)

// cohort holds each request until size requests are waiting, then
// answers them together, so that many connections come back to the
// client's idle pool at once. A cohort still short after 20 ms, as the
// listing's last chunks leave it, is answered as it stands.
type cohort struct {
	size int

	mu      sync.Mutex
	waiting int
	release chan struct{}
}

func (c *cohort) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		if c.release == nil {
			c.release = make(chan struct{})
		}
		release := c.release
		if c.waiting++; c.waiting == c.size {
			close(c.release)
			c.release, c.waiting = nil, 0
		}
		c.mu.Unlock()
		select {
		case <-release:
		case <-time.After(20 * time.Millisecond):
		}
		h.ServeHTTP(w, r)
	})
}

// TestServiceClientsKeepAConnectionPerWorker runs a worker over the HTTP
// AndroZoo and Play Store services with 8 pipeline workers at scale 500
// and counts the connections the Play Store accepts. Each metadata worker
// looks a chunk of the listing up in one request, 204 in all, and the
// store answers them in cohorts of 8, so 8 connections return to the
// client's idle pool at once after every cohort. The worker's service
// client keeps an idle connection per pipeline worker, so the count stays
// within 2 × workers (it reads 8); with net/http's default of 2 idle
// connections per host, most of every cohort's connections are closed and
// dialed again (over 80).
func TestServiceClientsKeepAConnectionPerWorker(t *testing.T) {
	const workers = 8
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 500})
	if err != nil {
		t.Fatal(err)
	}
	az := httptest.NewServer(androzoo.NewServer(c).Handler())
	defer az.Close()
	gate := &cohort{size: workers}
	ps := httptest.NewUnstartedServer(gate.wrap(playstore.NewServer(c).Handler()))
	var conns, requests atomic.Int64
	ps.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			conns.Add(1)
		case http.StateActive:
			requests.Add(1)
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
	n, reqs := conns.Load(), requests.Load()
	t.Logf("%d metadata lookups in %d requests dialed %d Play Store connections", res.Funnel.Snapshot, reqs, n)
	if reqs < 4*workers {
		t.Fatalf("%d requests: too few cohorts to show pool overflow", reqs)
	}
	if n > 2*workers {
		t.Errorf("%d requests at %d workers dialed %d Play Store connections, want at most %d",
			reqs, workers, n, 2*workers)
	}
}
