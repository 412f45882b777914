package playstore

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/retry"
)

func testServer(t *testing.T) (*httptest.Server, *corpus.Corpus) {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(c).Handler())
	t.Cleanup(srv.Close)
	return srv, c
}

func TestMetadataFound(t *testing.T) {
	srv, c := testServer(t)
	client := NewClient(srv.URL, srv.Client())
	want := c.Filtered()[0]
	md, err := client.Metadata(context.Background(), want.Package)
	if err != nil {
		t.Fatalf("Metadata: %v", err)
	}
	if md.Package != want.Package || md.Downloads != want.Downloads ||
		md.Category != want.PlayCategory || !md.LastUpdated.Equal(want.LastUpdated) {
		t.Errorf("metadata = %+v, want spec %+v", md, want)
	}
}

func TestMetadataNotFound(t *testing.T) {
	srv, _ := testServer(t)
	client := NewClient(srv.URL, srv.Client())
	_, err := client.Metadata(context.Background(), "com.never.existed")
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestOffPlayAppsAreNotFound(t *testing.T) {
	srv, c := testServer(t)
	client := NewClient(srv.URL, srv.Client())
	var offPlay string
	for _, s := range c.Apps {
		if !s.OnPlayStore {
			offPlay = s.Package
			break
		}
	}
	if offPlay == "" {
		t.Skip("corpus has no off-play apps at this scale")
	}
	if _, err := client.Metadata(context.Background(), offPlay); !errors.Is(err, ErrNotFound) {
		t.Errorf("off-play app err = %v, want ErrNotFound", err)
	}
}

func TestMetadataContextCancel(t *testing.T) {
	srv, c := testServer(t)
	client := NewClient(srv.URL, srv.Client())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Metadata(ctx, c.Apps[0].Package); err == nil {
		t.Error("cancelled context did not fail")
	}
}

func TestMetadataBadBase(t *testing.T) {
	client := NewClient("http://127.0.0.1:1", nil)
	if _, err := client.Metadata(context.Background(), "x"); err == nil {
		t.Error("unreachable server did not fail")
	}
}

// TestLookupsShareOneConnection runs sequential lookups spread evenly
// across the snapshot, where absent apps outnumber listed ones as in the
// paper (62.3% of AndroZoo is not on the store). Every answer, 404s
// included, is read to the end, so one keep-alive connection serves them
// all.
func TestLookupsShareOneConnection(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(NewServer(c).Handler())
	var conns atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	var found, absent int
	for i := 0; i < len(c.Apps); i += len(c.Apps) / 50 {
		app := c.Apps[i]
		_, err := client.Metadata(context.Background(), app.Package)
		switch {
		case err == nil:
			found++
		case errors.Is(err, ErrNotFound):
			absent++
		default:
			t.Fatalf("Metadata %s: %v", app.Package, err)
		}
	}
	if found == 0 || absent == 0 {
		t.Fatalf("%d found, %d absent: the lookups must mix both", found, absent)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("%d sequential lookups (%d not found) dialed %d connections, want 1", found+absent, absent, n)
	}
}

// flakyStore 503s the first n requests per path, then proxies to real.
type flakyStore struct {
	mu       sync.Mutex
	failures map[string]int
	n        int
	real     http.Handler
}

func (h *flakyStore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.failures[r.URL.Path]++
	misbehave := h.failures[r.URL.Path] <= h.n
	h.mu.Unlock()
	if misbehave {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
		return
	}
	h.real.ServeHTTP(w, r)
}

func TestMetadataServerErrorRetried(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	h := &flakyStore{failures: make(map[string]int), n: 2, real: NewServer(c).Handler()}
	srv := httptest.NewServer(h)
	defer srv.Close()

	var onPlay string
	for _, app := range c.Apps {
		if app.OnPlayStore {
			onPlay = app.Package
			break
		}
	}
	m := &retry.Metrics{}
	client := NewClient(srv.URL, srv.Client()).WithRetry(&retry.Policy{
		MaxAttempts: 4, Seed: 1, Metrics: m,
		Sleep: func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	})
	md, err := client.Metadata(context.Background(), onPlay)
	if err != nil {
		t.Fatalf("Metadata did not outlast 2 consecutive 503s: %v", err)
	}
	if md.Package != onPlay {
		t.Errorf("md.Package = %q, want %q", md.Package, onPlay)
	}
	if m.Retries.Load() != 2 {
		t.Errorf("retries = %d, want 2", m.Retries.Load())
	}
}

func TestMetadataNotFoundIsNotRetried(t *testing.T) {
	srv, _ := testServer(t)
	m := &retry.Metrics{}
	client := NewClient(srv.URL, srv.Client()).WithRetry(&retry.Policy{
		MaxAttempts: 5, Seed: 1, Metrics: m,
		Sleep: func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	})
	_, err := client.Metadata(context.Background(), "com.definitely.absent")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if m.Retries.Load() != 0 {
		t.Errorf("a 404 was retried %d times; absence is an answer", m.Retries.Load())
	}
	if m.Attempts.Load() != 1 {
		t.Errorf("attempts = %d, want 1", m.Attempts.Load())
	}
}
