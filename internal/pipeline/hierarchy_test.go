package pipeline

import (
	"testing"
	"time"

	"repro/internal/apk"
	"repro/internal/dalvik"
	"repro/internal/manifest"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

// TestCyclicHierarchyAPKTerminates analyses an APK whose classes extend
// each other in a cycle (com.a.A extends com.a.B extends com.a.A) and
// whose entry point calls a method neither class defines. Every stage
// must return: one such download used to block its pipeline worker
// forever in call resolution.
func TestCyclicHierarchyAPKTerminates(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("com.a.A", "com.a.B", dalvik.AccPublic).
		VoidMethod("onClick", dalvik.InvokeVirtual("com.a.A", "missing", "()void"))
	b.Class("com.a.B", "com.a.A", dalvik.AccPublic)
	m := &manifest.Manifest{
		Package:     "com.a",
		VersionCode: 1,
		Components:  []manifest.Component{{Kind: manifest.KindActivity, Name: "com.a.A"}},
	}
	img, err := apk.Pack(m, b.MustBuild(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		an  *Analysis
		err error
	}
	done := make(chan result, 1)
	go func() {
		an, err := AnalyzeAndExtract(nil, lint, urlextract.New(urlextract.Config{}), img)
		done <- result{an, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.an.Broken || r.an.UsesWebView || len(r.an.Endpoints) != 0 {
			t.Errorf("analysis = %+v, want an unbroken APK with no WebView use or endpoints", r.an)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AnalyzeAndExtract did not return on a cyclic class hierarchy")
	}
}
