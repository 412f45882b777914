// End-to-end tests of the scan plane at the binary surface: the
// coordinator and its own worker run in this process, and spawned workers
// are separate OS processes — this same test binary re-executed with
// -join — joined over real HTTP.
package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestMain turns the test binary into a staticscan worker when the guard
// variable is set: spawnWorkers exec's os.Executable(), which under `go
// test` is this binary. Dispatching before m.Run keeps the testing
// machinery (and its flag registration) out of the worker's way.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnvGuard) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// scanTo runs the one entry point the way main wires it, with the flag
// defaults a test leaves unset: one partition and an ephemeral loopback
// control plane.
func scanTo(out *os.File, o options, telem *telemetry.Flags) error {
	if o.shards == 0 {
		o.shards = 1
	}
	o.listen = "127.0.0.1:0"
	return scan(out, o, telem)
}

// runOutputs is what one staticscan run writes: stdout, -metrics-out,
// -trace-out, -lint-json and -urls-json.
type runOutputs struct{ stdout, metrics, trace, lint, urls []byte }

// captureRun runs one scan with stdout, -metrics-out, -trace-out,
// -lint-json and -urls-json going to files, and returns the five files.
func captureRun(t *testing.T, o options) runOutputs {
	t.Helper()
	dir := t.TempDir()
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	telem := &telemetry.Flags{
		MetricsOut: filepath.Join(dir, "metrics.json"),
		TraceOut:   filepath.Join(dir, "trace.jsonl"),
	}
	o.lintJSON = filepath.Join(dir, "lint.json")
	o.urlsJSON = filepath.Join(dir, "urls.json")
	if err := scanTo(out, o, telem); err != nil {
		t.Fatal(err)
	}
	if err := telem.Finish(); err != nil {
		t.Fatal(err)
	}
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return runOutputs{read(out.Name()), read(telem.MetricsOut), read(telem.TraceOut), read(o.lintJSON), read(o.urlsJSON)}
}

// captureStderr runs fn with os.Stderr redirected to a file, which
// spawned workers inherit too, and returns what was written.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	fn()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCoordinatorSpawnsWorkerProcesses is the plane's contract at the CLI
// surface: four shards over the coordinator's own worker and two spawned
// worker OS processes write the default one-partition run's stdout (lint
// and urlextract tables included), -metrics-out, -trace-out, -lint-json
// and -urls-json byte for byte.
func TestCoordinatorSpawnsWorkerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes; skipped in -short")
	}
	o := options{scale: 2500, seed: 1, lint: true, urls: true}
	want := captureRun(t, o)
	o.shards, o.spawn, o.ttl = 4, 2, time.Minute
	got := captureRun(t, o)
	if !bytes.Contains(want.stdout, []byte("Table 3")) || !bytes.Contains(want.trace, []byte(`"trace":"apk:`)) {
		t.Fatalf("default run is missing its tables or per-APK spans:\n%.400s\n%.400s", want.stdout, want.trace)
	}
	if !bytes.Contains(want.lint, []byte(`"findings"`)) || !bytes.Contains(want.urls, []byte(`"endpoints"`)) {
		t.Fatalf("default run's JSON documents are missing findings or endpoints:\n%.400s\n%.400s", want.lint, want.urls)
	}
	for _, out := range []struct {
		name      string
		got, want []byte
	}{
		{"stdout", got.stdout, want.stdout},
		{"-metrics-out", got.metrics, want.metrics},
		{"-trace-out", got.trace, want.trace},
		{"-lint-json", got.lint, want.lint},
		{"-urls-json", got.urls, want.urls},
	} {
		if !bytes.Equal(out.got, out.want) {
			t.Errorf("4-shard %s diverged from the default run (%d vs %d bytes):\n--- 4 shards ---\n%.800s\n--- default ---\n%.800s",
				out.name, len(out.got), len(out.want), out.got, out.want)
		}
	}
}

// TestFaultsReachEveryWorker runs -faults through the plane at one
// partition and at four shards over two spawned worker processes. Every
// listing failing fails the run at the listing at both topologies, and
// one operation in ten failing under -retries 7 leaves the fault-free
// report, with the injected faults in -metrics-out.
func TestFaultsReachEveryWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes; skipped in -short")
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	// The run fails with the first worker's failure, which for a spawned
	// worker is its exit status; the worker logged the cause on stderr.
	for _, topo := range []struct{ shards, spawn int }{{1, 0}, {4, 2}} {
		o := options{scale: 2500, seed: 3, faults: "seed=1,err=1", shards: topo.shards, spawn: topo.spawn}
		var err error
		stderr := captureStderr(t, func() { err = scanTo(devnull, o, &telemetry.Flags{}) })
		if err == nil || !strings.Contains(stderr, "list: faults: injected failure") {
			t.Errorf("%d shards: scan = %v, want it failed at the listing; stderr:\n%s", topo.shards, err, stderr)
		}
	}

	o := options{scale: 2500, seed: 3, lint: true, urls: true}
	clean := captureRun(t, o)
	o.faults, o.retries, o.shards, o.spawn = "seed=7,err=0.1", 7, 4, 2
	faulted := captureRun(t, o)
	if !bytes.Equal(faulted.stdout, clean.stdout) {
		t.Errorf("faulted 4-shard report diverged from the fault-free run:\n%.800s", faulted.stdout)
	}
	snap, err := telemetry.DecodeSnapshot(faulted.metrics)
	if err != nil {
		t.Fatal(err)
	}
	if n := snap.Family("faults_injected_total").Total(); n == 0 {
		t.Error("faulted 4-shard -metrics-out counts no injected fault")
	}
}

// TestShardedRunPrintsSummaries checks the stderr summaries print from the
// merged result at four shards: the cache line, the quarantine summary
// and -stats. Nine downloads in ten are cut short, so some are
// quarantined after their retries.
func TestShardedRunPrintsSummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes; skipped in -short")
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	o := options{
		scale: 20000, seed: 3, retries: 3, maxFailureFrac: 1, faults: "seed=3,trunc=0.9",
		cachedir: t.TempDir(), stats: true, shards: 4, spawn: 1,
	}
	stderr := captureStderr(t, func() {
		if err := scanTo(devnull, o, &telemetry.Flags{}); err != nil {
			t.Errorf("scan: %v", err)
		}
	})
	for _, want := range []string{
		"analysis cache: 0 hits, ",
		"degraded: 6 of 325 packages quarantined after retries",
		"pipeline stats (total ",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("4-shard stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// TestCoordinatorFailsWhenEverySpawnedWorkerDies pins the coordinator's
// exit on a dead fleet: its own worker and the spawned worker each lease
// one of the two partitions and fail to open the shared cache directory
// (its parent is a regular file), so no lease will ever complete. The
// coordinator must fail with their error, not wait.
func TestCoordinatorFailsWhenEverySpawnedWorkerDies(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes; skipped in -short")
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	o := options{scale: 2500, seed: 3, cachedir: filepath.Join(file, "cache"), shards: 2, spawn: 1}
	errc := make(chan error, 1)
	go func() { errc <- scanTo(devnull, o, &telemetry.Flags{}) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("coordinator succeeded although every worker failed")
		}
		t.Logf("coordinator failed as expected: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator still waiting 60s after every worker exited")
	}
}

// TestWorkerModeNeedsJoin covers the flag contract: a worker needs the
// coordinator's URL.
func TestWorkerModeNeedsJoin(t *testing.T) {
	if err := runWorker("", 3, &telemetry.Flags{}); err == nil {
		t.Fatal("worker mode without a -join URL succeeded")
	}
}

// TestJoinRefusesTelemetryOutputs covers the flag contract: a worker's
// telemetry reaches the run's outputs through the coordinator, so -join
// refuses each telemetry output before it contacts anything.
func TestJoinRefusesTelemetryOutputs(t *testing.T) {
	for _, telem := range []telemetry.Flags{
		{Addr: "127.0.0.1:0"},
		{MetricsOut: filepath.Join(t.TempDir(), "metrics.json")},
		{TraceOut: filepath.Join(t.TempDir(), "trace.jsonl")},
	} {
		err := runWorker("http://127.0.0.1:9", 0, &telem)
		if err == nil || !strings.Contains(err.Error(), "-join takes no") {
			t.Errorf("-join with %+v: %v, want a usage error", telem, err)
		}
	}
}

// TestCoordinatorModeNeedsShards covers the flag contract.
func TestCoordinatorModeNeedsShards(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if err := scan(devnull, options{scale: 2500, seed: 1, listen: "127.0.0.1:0"}, &telemetry.Flags{}); err == nil {
		t.Fatal("a scan over 0 shards succeeded")
	}
}
