package core

import (
	"context"
	"testing"

	"repro/internal/corpus"
)

// BenchmarkIABProbeCPU measures one full §3.2.2 dynamic-harness pass —
// every named IAB app visiting the controlled page and executing its
// probe scripts. Unlike the crawler benches (wait-dominated by design),
// this path is pure CPU.
func BenchmarkIABProbeCPU(b *testing.B) {
	var specs []*corpus.Spec
	for _, n := range corpus.NamedApps {
		specs = append(specs, &corpus.Spec{
			Package: n.Package, Title: n.Title, Downloads: n.Downloads,
			OnPlayStore: true, Dynamic: n.Dynamic,
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		study := NewDynamicStudy()
		if _, _, err := study.ProbeIABs(context.Background(), specs); err != nil {
			b.Fatal(err)
		}
	}
}
