package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

// analysisDigests pins, per analysisVersion, the digest of
// AnalyzeAndExtract's output (lint and URL extraction on) over every
// filtered APK of the scale-2000, seed-1 corpus.
var analysisDigests = map[int]string{
	1: "0111c7ba0b2c35ec3249484e8baac5940b6ff8f7c83fdc549e4aed9e67e0fe4d",
	// Version 2: Decode rejects a class or a method defined twice. The
	// corpus defines neither, so its output keeps version 1's digest.
	2: "0111c7ba0b2c35ec3249484e8baac5940b6ff8f7c83fdc549e4aed9e67e0fe4d",
}

// TestAnalysisVersionPinsOutput fails when the analysis output changes
// while analysisVersion stays put: the cache key would then serve
// analyses of the old code on a warm run.
func TestAnalysisVersionPinsOutput(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ex := urlextract.New(urlextract.Config{})
	h := sha256.New()
	specs := c.Filtered()
	for _, s := range specs {
		img, err := corpus.BuildAPK(s)
		if err != nil {
			t.Fatalf("BuildAPK(%s): %v", s.Package, err)
		}
		an, err := AnalyzeAndExtract(nil, lint, ex, img)
		if err != nil {
			t.Fatalf("AnalyzeAndExtract(%s): %v", s.Package, err)
		}
		b, err := json.Marshal(an)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %s\n", s.Package, b)
	}
	got := hex.EncodeToString(h.Sum(nil))
	if want := analysisDigests[analysisVersion]; got != want {
		t.Fatalf("analysis output over %d APKs has digest %s, pinned %q for analysisVersion %d.\n"+
			"The decompiler, javaparser, callgraph or SDK attribution changed what it produces: "+
			"bump analysisVersion in pipeline.go and pin the new digest under the new version here.",
			len(specs), got, want, analysisVersion)
	}
}
