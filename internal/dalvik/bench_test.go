package dalvik_test

import (
	"archive/zip"
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/apk"
	"repro/internal/corpus"
	"repro/internal/dalvik"
)

// corpusDexes reads the sdex payload of every analysed app of the
// scale-200, seed-1 corpus: the bytecode `staticscan -scale 200` decodes.
var corpusDexes = sync.OnceValues(func() ([][]byte, error) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 200})
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, s := range c.Filtered() {
		if s.Broken {
			continue
		}
		img, err := corpus.BuildAPK(s)
		if err != nil {
			return nil, err
		}
		zr, err := zip.NewReader(bytes.NewReader(img), int64(len(img)))
		if err != nil {
			return nil, err
		}
		rc, err := zr.Open(apk.DexEntry)
		if err != nil {
			return nil, err
		}
		dex, err := io.ReadAll(rc)
		if err != nil {
			return nil, err
		}
		out = append(out, dex)
	}
	return out, nil
})

// BenchmarkDecode decodes one corpus dex per iteration, in turn: B/op and
// allocs/op are the per-APK cost of the decoded bytecode.
func BenchmarkDecode(b *testing.B) {
	dexes, err := corpusDexes()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if decoded, err = dalvik.Decode(dexes[i%len(dexes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// decoded keeps BenchmarkDecode's result live.
var decoded *dalvik.File
