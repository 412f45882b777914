// End-to-end tests of the sharded scan plane at the binary surface: the
// coordinator runs in this process and its workers are separate OS
// processes — this same test binary re-executed in worker mode — joined
// over real HTTP.
package main

import (
	"bytes"
	"os"
	"path/filepath"
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

// runOutputs is what one staticscan run writes: stdout, -metrics-out,
// -trace-out, -lint-json and -urls-json.
type runOutputs struct{ stdout, metrics, trace, lint, urls []byte }

// captureRun runs one staticscan entry point with stdout, -metrics-out,
// -trace-out, -lint-json and -urls-json going to files, the way main
// wires the flags, and returns the five files.
func captureRun(t *testing.T, o options, entry func(out *os.File, o options, telem *telemetry.Flags) error) runOutputs {
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
	o.telemetry = telem.Hub(o.seed)
	o.lintJSON = filepath.Join(dir, "lint.json")
	o.urlsJSON = filepath.Join(dir, "urls.json")
	if err := entry(out, o, telem); err != nil {
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

// TestCoordinatorSpawnsWorkerProcesses is the plane's contract at the CLI
// surface: a coordinator over four shards with two spawned worker OS
// processes writes the sequential run's stdout (lint and urlextract tables
// included), -metrics-out, -trace-out, -lint-json and -urls-json byte for
// byte.
func TestCoordinatorSpawnsWorkerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes; skipped in -short")
	}
	o := options{scale: 2500, seed: 1, lint: true, urls: true}
	want := captureRun(t, o, func(out *os.File, o options, _ *telemetry.Flags) error {
		return run(out, o)
	})
	so := shardOptions{coordinator: "127.0.0.1:0", shards: 4, spawn: 2, ttl: time.Minute}
	got := captureRun(t, o, func(out *os.File, o options, telem *telemetry.Flags) error {
		return runCoordinator(out, o, so, telem)
	})
	if !bytes.Contains(want.stdout, []byte("Table 3")) || !bytes.Contains(want.trace, []byte(`"trace":"apk:`)) {
		t.Fatalf("sequential run is missing its tables or per-APK spans:\n%.400s\n%.400s", want.stdout, want.trace)
	}
	if !bytes.Contains(want.lint, []byte(`"findings"`)) || !bytes.Contains(want.urls, []byte(`"endpoints"`)) {
		t.Fatalf("sequential run's JSON documents are missing findings or endpoints:\n%.400s\n%.400s", want.lint, want.urls)
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
			t.Errorf("coordinator %s diverged from the sequential run (%d vs %d bytes):\n--- coordinator ---\n%.800s\n--- sequential ---\n%.800s",
				out.name, len(out.got), len(out.want), out.got, out.want)
		}
	}
}

// TestCoordinatorFailsWhenEverySpawnedWorkerDies pins the coordinator's
// exit on a dead fleet: both spawned workers fail to open the shared cache
// directory (its parent is a regular file) and exit 1, so no lease will
// ever complete. The coordinator must fail with their error, not wait.
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
	o := options{scale: 2500, seed: 3, cachedir: filepath.Join(file, "cache")}
	so := shardOptions{coordinator: "127.0.0.1:0", shards: 2, spawn: 2}
	errc := make(chan error, 1)
	go func() { errc <- runCoordinator(devnull, o, so, &telemetry.Flags{}) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("coordinator succeeded although every worker failed")
		}
		t.Logf("coordinator failed as expected: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator still waiting 60s after both spawned workers exited")
	}
}

// TestWorkerModeNeedsJoin covers the flag contract.
func TestWorkerModeNeedsJoin(t *testing.T) {
	if err := runWorker(options{}, shardOptions{worker: true}); err == nil {
		t.Fatal("worker mode without -join succeeded")
	}
}

// TestCoordinatorModeNeedsShards covers the flag contract.
func TestCoordinatorModeNeedsShards(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if err := runCoordinator(devnull, options{scale: 2500, seed: 1}, shardOptions{coordinator: "127.0.0.1:0"}, &telemetry.Flags{}); err == nil {
		t.Fatal("coordinator mode without -shards succeeded")
	}
}
