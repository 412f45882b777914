package telemetry

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serving"
)

func fetch(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestServerEndpoints(t *testing.T) {
	h := New(Options{Timing: SeededTiming{Seed: 4}, Tracing: true})
	h.Counter("ops_total", "ops", "kind", "x").Add(2)
	h.Trace("t1").Start("step").End()

	srv, err := serving.Listen("127.0.0.1:0", Handler(h))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	code, ctype, body := fetch(t, base+"/healthz")
	if code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	_ = ctype

	code, ctype, body = fetch(t, base+"/metrics")
	if code != 200 || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics = %d %q", code, ctype)
	}
	if want := "# HELP ops_total ops\n# TYPE ops_total counter\nops_total{kind=\"x\"} 2\n"; body != want {
		t.Errorf("/metrics = %q, want %q", body, want)
	}

	code, ctype, body = fetch(t, base+"/metrics.json")
	if code != 200 || !strings.Contains(ctype, "application/json") || !strings.Contains(body, `"ops_total"`) {
		t.Errorf("/metrics.json = %d %q %q", code, ctype, body)
	}

	code, ctype, body = fetch(t, base+"/trace")
	if code != 200 || !strings.Contains(ctype, "x-ndjson") || !strings.Contains(body, `"span": "step"`) && !strings.Contains(body, `"span":"step"`) {
		t.Errorf("/trace = %d %q %q", code, ctype, body)
	}

	code, _, body = fetch(t, base+"/debug/pprof/cmdline")
	if code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

func TestFlagsLifecycle(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	trace := filepath.Join(dir, "t.jsonl")

	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse([]string{
		"-telemetry-addr", "127.0.0.1:0",
		"-metrics-out", metrics,
		"-trace-out", trace,
	}); err != nil {
		t.Fatal(err)
	}
	if !f.Enabled() {
		t.Fatal("flags set but Enabled() == false")
	}
	h := f.Hub(11)
	if h == nil {
		t.Fatal("enabled flags returned nil hub")
	}
	if h2 := f.Hub(99); h2 != h {
		t.Error("second Hub call built a new hub")
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	h.Counter("runs_total", "runs").Inc()
	h.Trace("t").Start("s").End()

	code, _, _ := fetch(t, "http://"+f.server.Addr+"/healthz")
	if code != 200 {
		t.Errorf("live server /healthz = %d", code)
	}
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	m, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(m), `"runs_total"`) {
		t.Errorf("metrics-out missing runs_total: %s", m)
	}
	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tr), `"span":"s"`) && !strings.Contains(string(tr), `"span": "s"`) {
		t.Errorf("trace-out missing span: %s", tr)
	}
	if _, err := http.Get("http://" + f.server.Addr + "/healthz"); err == nil {
		t.Error("server still up after Finish")
	}
}

// TestFlagsReportReplacesOutputs pins Report: Finish writes -metrics-out
// and -trace-out from the reported sources, not from the hub, while the
// hub keeps its own data.
func TestFlagsReportReplacesOutputs(t *testing.T) {
	dir := t.TempDir()
	f := Flags{MetricsOut: filepath.Join(dir, "m.json"), TraceOut: filepath.Join(dir, "t.jsonl")}
	h := f.Hub(1)
	h.Counter("own_total", "the hub's own family").Inc()
	h.Trace("own").Start("s").End()

	reported := New(Options{Tracing: true})
	f.Report(reported.Registry().Snapshot, reported.Tracer().WriteJSONL)
	// Recorded after Report: Finish must read the sources when it writes.
	reported.Counter("reported_total", "the reported family").Inc()
	reported.Trace("reported").Start("r").End()
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, out := range []struct{ path, want, own string }{
		{f.MetricsOut, "reported_total", "own_total"},
		{f.TraceOut, `"trace":"reported"`, `"trace":"own"`},
	} {
		got, err := os.ReadFile(out.path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(got), out.want) || strings.Contains(string(got), out.own) {
			t.Errorf("%s should carry only the reported data (%s):\n%s", filepath.Base(out.path), out.want, got)
		}
	}
}

func TestFlagsDisabled(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Enabled() {
		t.Error("no flags set but Enabled() == true")
	}
	if f.Hub(1) != nil {
		t.Error("disabled flags returned a hub")
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestServerHardening pins that the debug endpoint Flags starts runs on
// the hardened listener: a request with an oversized header block is
// rejected, not served.
func TestServerHardening(t *testing.T) {
	f := Flags{Addr: "127.0.0.1:0"}
	f.Hub(4)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Finish()
	req, _ := http.NewRequest("GET", "http://"+f.server.Addr+"/healthz", nil)
	req.Header.Set("X-Padding", strings.Repeat("a", 64<<10))
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		if resp.StatusCode == 200 {
			t.Error("64KiB header request served despite MaxHeaderBytes")
		}
		resp.Body.Close()
	}
}

func TestServerCloseIsGraceful(t *testing.T) {
	h := New(Options{Timing: SeededTiming{Seed: 4}})
	srv, err := serving.Listen("127.0.0.1:0", Handler(h))
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := fetch(t, "http://"+srv.Addr+"/healthz"); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("orderly Close = %v, want nil", err)
	}
	if _, err := http.Get("http://" + srv.Addr + "/healthz"); err == nil {
		t.Error("server still accepting after Close")
	}
}
