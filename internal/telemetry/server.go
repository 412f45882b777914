package telemetry

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

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
