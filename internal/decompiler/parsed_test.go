package decompiler_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/apk"
	"repro/internal/corpus"
	"repro/internal/dalvik"
	"repro/internal/decompiler"
	"repro/internal/javaparser"
)

// corpusAPK is one filtered, unbroken APK of the scale-200, seed-1 corpus.
type corpusAPK struct {
	pkg string
	dex *dalvik.File
}

var corpusOnce = sync.OnceValues(func() ([]corpusAPK, error) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 200})
	if err != nil {
		return nil, err
	}
	var out []corpusAPK
	for _, s := range c.Filtered() {
		if s.Broken {
			continue
		}
		img, err := corpus.BuildAPK(s)
		if err != nil {
			return nil, err
		}
		a, err := apk.Open(img)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Package, err)
		}
		out = append(out, corpusAPK{s.Package, a.Dex})
	}
	return out, nil
})

func corpusAPKs(t *testing.T) []corpusAPK {
	t.Helper()
	apks, err := corpusOnce()
	if err != nil {
		t.Fatal(err)
	}
	return apks
}

// TestParsedMatchesParse holds the walk's two readings equal: for every
// class of the corpus, Parsed builds exactly the unit javaparser.Parse
// reads from the class's rendered source.
func TestParsedMatchesParse(t *testing.T) {
	apks := corpusAPKs(t)
	classes, calls := 0, 0
	for _, a := range apks {
		got := decompiler.Parsed(a.dex)
		if len(got) != len(a.dex.Classes) {
			t.Fatalf("%s: %d units for %d classes", a.pkg, len(got), len(a.dex.Classes))
		}
		for i := range a.dex.Classes {
			src := decompiler.DecompileClass(&a.dex.Classes[i])
			want, err := javaparser.Parse(src)
			if err != nil {
				t.Fatalf("%s: %s does not parse: %v\n%s", a.pkg, a.dex.Classes[i].Name, err, src)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("%s: %s: Parsed\n%+v\nParse of the rendered source\n%+v\n%s",
					a.pkg, a.dex.Classes[i].Name, got[i], want, src)
			}
			classes++
			for _, m := range want.Types[0].Methods {
				calls += len(m.Calls)
			}
		}
	}
	t.Logf("%d APKs, %d classes, %d calls: Parsed equals Parse(DecompileClass)", len(apks), classes, calls)
}

// decompiledDigest pins the SHA-256 of every rendered unit, one "package
// path" line and the source per unit, over the filtered APKs of the
// scale-200, seed-1 corpus.
const decompiledDigest = "89d88095f6c2cfefca5a74d5c76a6b78e7c5ddc3f66faf25e7e546be8abe5c31"

// TestDecompileOutputPinned fails when the rendered source changes.
func TestDecompileOutputPinned(t *testing.T) {
	h := sha256.New()
	units := 0
	for _, a := range corpusAPKs(t) {
		for _, u := range decompiler.Decompile(a.dex) {
			fmt.Fprintf(h, "%s %s\n%s", a.pkg, u.Path, u.Source)
			units++
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != decompiledDigest {
		t.Errorf("%d rendered units have digest %s, pinned %s", units, got, decompiledDigest)
	}
}
