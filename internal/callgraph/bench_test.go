package callgraph_test

import (
	"sync"
	"testing"

	"repro/internal/apk"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/dalvik"
)

// corpusFiles decodes the bytecode of every analysed app of the scale-200,
// seed-1 corpus: the files `staticscan -scale 200` builds graphs over.
var corpusFiles = sync.OnceValues(func() ([]*dalvik.File, error) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 200})
	if err != nil {
		return nil, err
	}
	var out []*dalvik.File
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
			return nil, err
		}
		out = append(out, a.Dex)
	}
	return out, nil
})

// BenchmarkBuild builds the graph of one corpus file per iteration, in
// turn: B/op and allocs/op are the per-APK cost of numbering and
// resolving.
func BenchmarkBuild(b *testing.B) {
	files, err := corpusFiles()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built = callgraph.Build(files[i%len(files)])
	}
}

// built keeps BenchmarkBuild's result live.
var built *callgraph.Graph
