package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestLintJSONGolden runs the full staticscan path with -lint-json over a
// small fixed corpus and compares the machine-readable findings document
// byte-for-byte against the checked-in golden file: the lint output is part
// of the tool's contract and must stay deterministic across refactors.
// Regenerate with: go test ./cmd/staticscan -run TestLintJSONGolden -update
func TestLintJSONGolden(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "lint.json")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	o := options{scale: 5000, seed: 1, workers: 2, lint: true, lintJSON: jsonPath}
	if err := run(devnull, o); err != nil {
		t.Fatalf("run: %v", err)
	}
	got, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "lint_scale5000_seed1.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("lint JSON drifted from golden file %s\ngot:\n%s", golden, got)
	}

	// Sanity beyond byte equality: the document decodes and carries the
	// full rule registry plus at least one flagged app.
	var doc lintReport
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("golden output is not valid JSON: %v", err)
	}
	if len(doc.Rules) < 8 {
		t.Errorf("document lists %d rules, want the full registry (>=8)", len(doc.Rules))
	}
	if len(doc.Apps) == 0 {
		t.Error("document flags no apps over the seeded corpus")
	}
}

// TestURLJSONGolden pins the -urls-json document the same way: the static
// endpoint extraction is part of the tool's contract and must stay
// byte-deterministic across refactors of the dataflow engine.
// Regenerate with: go test ./cmd/staticscan -run TestURLJSONGolden -update
func TestURLJSONGolden(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "urls.json")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	o := options{scale: 5000, seed: 1, workers: 2, urls: true, urlsJSON: jsonPath}
	if err := run(devnull, o); err != nil {
		t.Fatalf("run: %v", err)
	}
	got, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "urls_scale5000_seed1.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("URL JSON drifted from golden file %s\ngot:\n%s", golden, got)
	}

	var doc urlReport
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("golden output is not valid JSON: %v", err)
	}
	if doc.Endpoints == 0 || len(doc.AppURLs) == 0 {
		t.Errorf("document carries no endpoints over the seeded corpus: %+v", doc)
	}
	if doc.Kinds["full"] == 0 {
		t.Errorf("no fully-resolved endpoint in the document: kinds = %v", doc.Kinds)
	}
}

// TestURLJSONWorkerIndependent pins the concurrency contract stated in the
// package doc: the -urls-json document is byte-identical no matter how
// many pipeline workers raced to produce it.
func TestURLJSONWorkerIndependent(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	docs := make([][]byte, 0, 2)
	for _, workers := range []int{1, 4} {
		jsonPath := filepath.Join(t.TempDir(), "urls.json")
		o := options{scale: 5000, seed: 1, workers: workers, urls: true, urlsJSON: jsonPath}
		if err := run(devnull, o); err != nil {
			t.Fatalf("run (workers=%d): %v", workers, err)
		}
		got, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, got)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Errorf("URL JSON differs between workers=1 and workers=4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			docs[0], docs[1])
	}
}

// TestRetriesAreOneLayerDeep checks that the pipeline is the only retry
// layer over the AndroZoo client, for the listing and for downloads alike:
// -retries 3 gives each operation exactly 4 attempts, where a client-side
// policy stacked beneath it would make that 4 × 4 = 16 and multiply the
// backoff sleeps.
func TestRetriesAreOneLayerDeep(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	const retries = 3
	scan := func(faults string) (*telemetry.Hub, error) {
		hub := telemetry.New(telemetry.Options{})
		return hub, run(devnull, options{
			scale: 20000, seed: 3, retries: retries, maxFailureFrac: 1,
			faults: faults, telemetry: hub,
		})
	}

	// A corrupted byte always leaves a listing line that is not a package
	// name, so every attempt fails and the run stops at the listing.
	t.Run("listing", func(t *testing.T) {
		hub, err := scan("seed=1,corrupt=1")
		if err == nil || !strings.Contains(err.Error(), "list:") || !strings.Contains(err.Error(), "not a package name") {
			t.Fatalf("run = %v, want the damaged listing refused", err)
		}
		if got, want := hub.Counter("faults_injected_total", "", "class", "corrupt").Value(), int64(retries+1); got != want {
			t.Errorf("corrupt listings served = %d, want %d (-retries %d + 1 attempts)", got, want, retries)
		}
	})

	// Nine bodies in ten are cut short, each decided by a hash of the fault
	// seed, the path and the attempt, so every count here is fixed. At this
	// seed the listing is cut once: it fails its digest trailer and arrives
	// whole on its second attempt. A cut download fails its Content-Length
	// check; six downloads are cut on all four attempts and quarantined, and
	// one more is cut once before it arrives.
	t.Run("download", func(t *testing.T) {
		hub, err := scan("seed=3,trunc=0.9")
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		counter := func(name string, labels ...string) int64 {
			return hub.Counter(name, "", labels...).Value()
		}
		const wantQuarantined, retriedOnce, listingCuts = 6, 1, 1
		quarantined := counter("pipeline_stage_quarantined_total", "stage", "download")
		if quarantined != wantQuarantined {
			t.Fatalf("quarantined downloads = %d, want %d", quarantined, wantQuarantined)
		}
		// The listing counts into no retry metrics, so these are the
		// downloads' retries alone.
		retried := counter("retry_retries_total")
		if want := quarantined*retries + retriedOnce; retried != want {
			t.Errorf("retry_retries_total = %d, want %d (%d quarantined downloads × %d retries + %d)",
				retried, want, quarantined, retries, retriedOnce)
		}
		// Every cut download attempt was retried or was the last of a
		// quarantined download; the rest are the listing's cuts. A retry
		// layer inside the client would add cut attempts that no retry
		// counter sees.
		if got, want := counter("faults_injected_total", "class", "truncate"), retried+quarantined+listingCuts; got != want {
			t.Errorf("truncated bodies served = %d, want %d (%d retried + %d quarantined download attempts + %d listing)",
				got, want, retried, quarantined, listingCuts)
		}
	})
}
