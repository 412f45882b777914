package telemetry

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/serving"
)

// Flags wires the shared telemetry command-line surface into a binary:
//
//	-telemetry-addr ADDR   serve /metrics, /metrics.json, /healthz, /trace
//	                       and /debug/pprof live during the run
//	-metrics-out FILE      write the canonical JSON metrics snapshot on exit
//	-trace-out FILE        write the span trace as JSONL on exit
//	-telemetry-wallclock   record real wall-clock durations instead of the
//	                       seed-derived deterministic timings
//
// By default durations are seed-derived (SeededTiming), so two same-seed
// runs write byte-identical snapshots and traces — the property the
// determinism tests and the CI smoke job assert. Pass
// -telemetry-wallclock to trade that for real latencies.
type Flags struct {
	Addr       string
	MetricsOut string
	TraceOut   string
	Wallclock  bool

	hub    *Hub
	server *serving.Endpoint
	// metrics and trace are what Finish writes -metrics-out and -trace-out
	// from: the hub's registry and tracer unless Report replaced them.
	metrics func() *Snapshot
	trace   func(io.Writer) error
}

// Register installs the telemetry flags on fs (the default set when nil).
func (f *Flags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&f.Addr, "telemetry-addr", "", "serve /metrics, /healthz, /trace and pprof on this address during the run")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the JSON metrics snapshot to this file on exit (\"-\" for stdout)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the span trace as JSONL to this file on exit (\"-\" for stdout)")
	fs.BoolVar(&f.Wallclock, "telemetry-wallclock", false, "record wall-clock durations instead of deterministic seed-derived timings")
}

// Enabled reports whether any telemetry output was requested.
func (f *Flags) Enabled() bool {
	return f.Addr != "" || f.MetricsOut != "" || f.TraceOut != ""
}

// Hub returns the run's hub, building it on first call: nil when no
// telemetry flag was set (instrumented code treats a nil hub as a no-op),
// otherwise a hub with seed-derived timing (or wall clock when requested)
// and tracing enabled iff a trace consumer exists.
func (f *Flags) Hub(seed int64) *Hub {
	if !f.Enabled() {
		return nil
	}
	if f.hub == nil {
		var timing Timing = SeededTiming{Seed: seed}
		if f.Wallclock {
			timing = RealTiming{}
		}
		f.hub = New(Options{Timing: timing, Tracing: f.TraceOut != "" || f.Addr != ""})
	}
	return f.hub
}

// Start launches the -telemetry-addr debug server when requested. Call
// after Hub; the bound address is logged to stderr.
func (f *Flags) Start() error {
	if f.Addr == "" || f.hub == nil {
		return nil
	}
	srv, err := serving.Listen(f.Addr, Handler(f.hub))
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	f.server = srv
	fmt.Fprintf(os.Stderr, "telemetry: serving /metrics /metrics.json /healthz /trace /debug/pprof on http://%s\n", srv.Addr)
	return nil
}

// Report makes metrics and trace the sources Finish writes -metrics-out
// and -trace-out from, in place of the hub's own registry and tracer. A
// shard coordinator reports its fleet's rollup and stitched trace this
// way, so each file carries the same bytes at every topology; the hub
// keeps serving the process's own data live.
func (f *Flags) Report(metrics func() *Snapshot, trace func(io.Writer) error) {
	f.metrics, f.trace = metrics, trace
}

// Finish writes -metrics-out and -trace-out and stops the debug server.
// Safe to call unconditionally (defer it right after Register/parse).
func (f *Flags) Finish() error {
	defer f.server.Close()
	if f.hub == nil {
		return nil
	}
	metrics, trace := f.hub.Registry().Snapshot, f.hub.Tracer().WriteJSONL
	if f.metrics != nil {
		metrics, trace = f.metrics, f.trace
	}
	if f.MetricsOut != "" {
		if err := writeTo(f.MetricsOut, metrics().WriteJSON); err != nil {
			return fmt.Errorf("telemetry: metrics-out: %w", err)
		}
	}
	if f.TraceOut != "" {
		if err := writeTo(f.TraceOut, trace); err != nil {
			return fmt.Errorf("telemetry: trace-out: %w", err)
		}
	}
	return nil
}

func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
