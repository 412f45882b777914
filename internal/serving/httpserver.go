// Package serving is the hardened listener every HTTP surface of the
// binaries runs on: the shard coordinator's control plane, the loopback
// AndroZoo and Play Store servers, and the telemetry debug endpoint. It
// bounds header, read, write and idle time and the header size, and it
// surfaces the accept loop's error instead of dropping it in a goroutine.
package serving

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// NewHTTPServer wraps h in a production-shaped http.Server: header, read,
// write and idle timeouts plus a header-size cap, so a slow-loris or
// hostile client cannot wedge the accept loop or hold goroutines hostage.
// The write timeout is 30 s for the debug endpoint's /debug/pprof/profile:
// on the Go 1.22 toolchain go.mod names, net/http/pprof refuses a profile
// whose seconds reach the server's write timeout.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
		MaxHeaderBytes:    16 << 10,
	}
}

// Endpoint is a hardened HTTP listener serving a handler over real
// sockets. Unlike a bare `go srv.Serve(ln)`, the accept-loop error is
// captured and surfaced through Err and Shutdown.
type Endpoint struct {
	Addr string // bound address (useful with ":0")
	srv  *http.Server
	ln   net.Listener

	mu       sync.Mutex
	serveErr error
	done     chan struct{}
}

// Listen binds addr and serves h until Shutdown or Close.
func Listen(addr string, h http.Handler) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	e := &Endpoint{Addr: ln.Addr().String(), ln: ln, srv: NewHTTPServer(h), done: make(chan struct{})}
	go func() {
		defer close(e.done)
		if err := e.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			e.mu.Lock()
			e.serveErr = err
			e.mu.Unlock()
		}
	}()
	return e, nil
}

// Err reports an accept-loop failure (nil while healthy or after an
// orderly shutdown).
func (e *Endpoint) Err() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.serveErr
}

// Shutdown stops accepting new connections — subsequent dials are refused
// at the socket — and waits (bounded by ctx) for in-flight requests.
func (e *Endpoint) Shutdown(ctx context.Context) error {
	if e == nil {
		return nil
	}
	shutErr := e.srv.Shutdown(ctx)
	if shutErr != nil {
		e.srv.Close()
	}
	<-e.done
	if err := e.Err(); err != nil {
		return err
	}
	return shutErr
}

// Close is Shutdown with a 5-second drain budget.
func (e *Endpoint) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return e.Shutdown(ctx)
}
