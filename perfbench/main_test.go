package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tiny runs the benchmark's CLI at a tiny size and returns the parsed
// last line of its output.
func tiny(t *testing.T, workload string, trace bool) result {
	t.Helper()
	args := []string{"--workload", workload, "--seed", "1", "--seconds", "0.1",
		"--scale", "2500", "--sites", "20", "--spans-out", filepath.Join(t.TempDir(), "spans.jsonl")}
	if trace {
		args = append(args, "--trace", "1")
	}
	var stdout, stderr bytes.Buffer
	if code := benchMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last output line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v", res)
	}
	return res
}

// TestWorkloadsPrintEveryMetric runs each workload once at a tiny size,
// plain and traced, and checks that every metric BENCHMARK.json names is
// printed with its unit.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(spec.PerLayer), len(perLayer))
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res := tiny(t, name, false)
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (printed %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			res = tiny(t, name, true)
			for _, m := range spec.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (printed %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if res.Metrics["trace.spans"].Value == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestTamperedExpectationFailsCheck checks that each workload's output
// check rejects a job once an expectation it holds is changed.
func TestTamperedExpectationFailsCheck(t *testing.T) {
	cfg := config{workload: "scan", seed: 1, scale: 2500, sites: 20, stderr: io.Discard}
	for _, tc := range []struct {
		name, workload string
		tamper         func(w workload)
	}{
		{"scan/funnel", "scan", func(w workload) { w.(*staticWorkload).want.Analyzed++ }},
		{"analyze/endpoint", "analyze", func(w workload) {
			sw := w.(*staticWorkload)
			for pkg, eps := range sw.planted {
				sw.planted[pkg] = append(eps, corpus.PlantedEndpoint{URL: "https://planted.invalid/", Kind: "full"})
				break
			}
		}},
		{"analyze/tables", "analyze", func(w workload) { w.(*staticWorkload).golden += "\n" }},
		{"dynamic/iabs", "dynamic", func(w workload) { w.(*dynamicWorkload).wantIABs++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg.workload = tc.workload
			w, err := setupWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			o, err := w.job(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.check(o); err != nil {
				t.Fatalf("untampered check: %v", err)
			}
			tc.tamper(w)
			if err := w.check(o); err == nil {
				t.Fatal("check passed with a tampered expectation")
			}
		})
	}
}

func TestCovered(t *testing.T) {
	parent := span{start: 10, end: 100}
	kids := []span{{start: 0, end: 20}, {start: 15, end: 30}, {start: 50, end: 60}, {start: 90, end: 200}, {start: 120, end: 130}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40 (10-30, 50-60, 90-100)", got)
	}
}

func TestPhaseOf(t *testing.T) {
	cur := ""
	var got []string
	for _, cmd := range []string{"launch", "post", "click", "newaccount", "click", "input", "wait", "netlog-external", "purge-netlog", "logcat-clear", "wait", "force-stop"} {
		cur = phaseOf(cmd, cur)
		got = append(got, cur)
	}
	want := "lane post click click click pageload pageload netlog cleanup cleanup cleanup lane"
	if strings.Join(got, " ") != want {
		t.Fatalf("phases %q, want %q", strings.Join(got, " "), want)
	}
}
