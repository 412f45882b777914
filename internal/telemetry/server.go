package telemetry

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// HandlerOptions adjusts how the debug mux is assembled.
type HandlerOptions struct {
	// FleetTraceURL, when set, marks this process as one shard of a
	// federated fleet: /trace answers 404 pointing operators at the
	// coordinator's stitched /fleet/trace instead of serving a partial,
	// single-shard span export that reads like the whole story.
	FleetTraceURL string
}

// Handler builds the debug mux for a hub:
//
//	/metrics        Prometheus text exposition
//	/metrics.json   canonical JSON snapshot
//	/healthz        liveness ("ok")
//	/trace          span export as JSONL (empty when tracing is off)
//	/debug/pprof/*  the standard runtime profiles
//
// The handler is safe to serve while a run is mutating the hub: metric
// reads are atomic and trace export copies under the trace locks.
func Handler(h *Hub) http.Handler {
	return NewHandler(h, HandlerOptions{})
}

// NewHandler is Handler with options.
func NewHandler(h *Hub, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		h.Registry().Snapshot().WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		h.Registry().Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		if opts.FleetTraceURL != "" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, "this process is one shard of a federated run; its local trace is partial.\nfetch the stitched fleet trace from %s\n", opts.FleetTraceURL)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		h.Tracer().WriteJSONL(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running debug endpoint.
type Server struct {
	Addr string // the bound address (useful with ":0")
	srv  *http.Server
	ln   net.Listener

	mu       sync.Mutex
	serveErr error
	done     chan struct{}
}

// drainTimeout bounds how long Close waits for in-flight debug requests
// (a /debug/pprof/profile scrape can run for seconds) before cutting them.
const drainTimeout = 5 * time.Second

// Serve starts the debug server on addr (e.g. "127.0.0.1:9090" or
// "127.0.0.1:0") and returns immediately; the listener runs until Close.
// The server carries header/write/idle timeouts and a header-size cap so a
// slow or hostile scraper cannot wedge a measurement run.
func Serve(addr string, h *Hub) (*Server, error) {
	return ServeOpts(addr, h, HandlerOptions{})
}

// ServeOpts is Serve with handler options.
func ServeOpts(addr string, h *Hub, opts HandlerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s := &Server{
		Addr: ln.Addr().String(),
		ln:   ln,
		srv: &http.Server{
			Handler:           NewHandler(h, opts),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       15 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       60 * time.Second,
			MaxHeaderBytes:    16 << 10,
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.mu.Lock()
			s.serveErr = err
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// Err reports the serve-loop error, if any: non-nil when the accept loop
// died for a reason other than an orderly Close (e.g. the listener was
// yanked). Nil while the server is healthy.
func (s *Server) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serveErr
}

// Close gracefully drains the server: it stops accepting, waits (bounded)
// for in-flight requests, then closes, and returns the first error the
// serve loop or the shutdown hit.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	shutErr := s.srv.Shutdown(ctx)
	if shutErr != nil {
		// Past the drain budget: cut the stragglers.
		s.srv.Close()
	}
	<-s.done
	if err := s.Err(); err != nil {
		return err
	}
	return shutErr
}
