package telemetry

import (
	"fmt"
	"net/http"
	"net/http/pprof"
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
