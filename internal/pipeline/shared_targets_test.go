package pipeline_test

import (
	"archive/zip"
	"bytes"
	"io"
	"testing"

	"repro/internal/apk"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/dalvik"
	"repro/internal/decompiler"
	"repro/internal/sdkindex"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

// TestConsumersLeaveSharedTargetsAlone decodes every image of the
// scale-200, seed-1 corpus and runs every reader of the decoded bytecode
// over it, as a pipeline worker does: Build, AnalyzeUsage, the
// decompiler's walk, lint and URL extraction. Decode points every invoke
// of one method-pool entry at that entry, so a reader that wrote through
// a Target would rewrite every call of that method; encoding the file
// again must still give the image's dex bytes.
func TestConsumersLeaveSharedTargetsAlone(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	idx := sdkindex.Default()
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ex := urlextract.New(urlextract.Config{})
	n := 0
	for _, s := range c.Filtered() {
		if s.Broken {
			continue
		}
		img, err := corpus.BuildAPK(s)
		if err != nil {
			t.Fatal(err)
		}
		a, err := apk.Open(img)
		if err != nil {
			t.Fatalf("%s: %v", s.Package, err)
		}
		excl := map[string]bool{}
		for _, dl := range a.Manifest.DeepLinkActivities() {
			excl[dl] = true
		}
		g := callgraph.Build(a.Dex)
		g.AnalyzeUsage(excl)
		lint.Analyze(webviewlint.App{Units: decompiler.Parsed(a.Dex), Graph: g, Index: idx})
		ex.Extract(g, excl, idx)

		got, err := dalvik.Encode(a.Dex)
		if err != nil {
			t.Fatalf("%s: %v", s.Package, err)
		}
		if want := dexEntry(t, img); !bytes.Equal(got, want) {
			t.Fatalf("%s: the decoded file encodes to %d bytes that differ from the image's %d", s.Package, len(got), len(want))
		}
		n++
	}
	if n == 0 {
		t.Fatal("the corpus has no analysable APK")
	}
}

// dexEntry reads the dex payload of an APK image with archive/zip.
func dexEntry(t *testing.T, img []byte) []byte {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := zr.Open(apk.DexEntry)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
