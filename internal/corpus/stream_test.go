package corpus

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestSnapshotMatchesGenerate proves the streaming view synthesizes exactly
// the specs the materializing generator produces, rank for rank, at both the
// default fixture scale and the chaos-corpus scale.
func TestSnapshotMatchesGenerate(t *testing.T) {
	for _, scale := range []int{200, 2500} {
		scale := scale
		t.Run(fmt.Sprintf("scale%d", scale), func(t *testing.T) {
			cfg := Config{Seed: 1, Scale: scale}
			full, err := Generate(cfg)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			snap, err := NewSnapshot(cfg)
			if err != nil {
				t.Fatalf("NewSnapshot: %v", err)
			}
			if snap.Total() != full.Total() {
				t.Fatalf("Total: snapshot %d, generate %d", snap.Total(), full.Total())
			}
			if snap.Counts() != full.Counts {
				t.Fatalf("Counts: snapshot %+v, generate %+v", snap.Counts(), full.Counts)
			}
			for i, want := range full.Apps {
				r := i + 1
				got := snap.At(r)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rank %d:\n  snapshot %+v\n  generate %+v", r, got, want)
				}
				// ByPackage must round-trip every package name.
				if by := snap.ByPackage(want.Package); !reflect.DeepEqual(by, want) {
					t.Fatalf("ByPackage(%q): got %+v, want %+v", want.Package, by, want)
				}
			}
			if snap.At(0) != nil || snap.At(snap.Total()+1) != nil {
				t.Fatal("At out of range should be nil")
			}
			if snap.ByPackage("com.nonexistent.app") != nil {
				t.Fatal("ByPackage of unknown package should be nil")
			}
			// A rank-encoded name whose rank regenerates under a different
			// prefix must not leak a mismatched spec.
			if s := snap.ByPackage("com.longtail0000001"); s != nil {
				t.Fatalf("ByPackage of misprefixed rank should be nil, got %+v", s)
			}
			// Each must stream the same sequence.
			r := 0
			err = snap.Each(func(s *Spec) error {
				if !reflect.DeepEqual(s, full.Apps[r]) {
					return fmt.Errorf("rank %d mismatch", r+1)
				}
				r++
				return nil
			})
			if err != nil {
				t.Fatalf("Each: %v", err)
			}
			if r != full.Total() {
				t.Fatalf("Each visited %d of %d", r, full.Total())
			}
		})
	}
}

// TestSnapshotEachStopsOnError checks error propagation from the callback.
func TestSnapshotEachStopsOnError(t *testing.T) {
	snap, err := NewSnapshot(Config{Seed: 1, Scale: 2500})
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	n := 0
	if got := snap.Each(func(*Spec) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	}); got != boom {
		t.Fatalf("Each error: got %v, want %v", got, boom)
	}
	if n != 3 {
		t.Fatalf("Each visited %d entries after error, want 3", n)
	}
}

// TestSnapshotPaperScaleBoundedMemory streams through the entire eligible
// band of the full paper-scale snapshot (Scale 1: 6.5M repository entries,
// 146.8K filtered apps) and asserts the heap stays bounded — the point of
// the streaming generator is that paper scale costs kilobytes, not the
// ~gigabytes a materialized []*Spec would.
func TestSnapshotPaperScaleBoundedMemory(t *testing.T) {
	snap, err := NewSnapshot(Config{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := snap.Counts()
	if counts.Filtered != PaperFilteredApps {
		t.Fatalf("paper-scale filtered = %d, want %d", counts.Filtered, PaperFilteredApps)
	}
	if counts.Total != PaperAndrozooApps {
		t.Fatalf("paper-scale total = %d, want %d", counts.Total, PaperAndrozooApps)
	}

	// Cover every filtered (analyzable) app — they all live in the popular
	// band — plus a slice of the long tail. In short mode sample the same
	// band sparsely to keep the test fast.
	limit := counts.Popular + 1000
	if limit > counts.Total {
		limit = counts.Total
	}
	step := 1
	if testing.Short() {
		step = 97 // prime stride: still samples every branch of specAt
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	eligible := 0
	for r := 1; r <= limit; r += step {
		s := snap.At(r)
		if s == nil {
			t.Fatalf("rank %d: nil spec", r)
		}
		if s.Eligible(MinDownloads, UpdateCutoff) {
			eligible++
		}
	}
	if step == 1 && eligible != counts.Filtered {
		t.Fatalf("streamed %d eligible apps over the popular band, want the full funnel %d", eligible, counts.Filtered)
	}
	if eligible == 0 {
		t.Fatal("no eligible specs seen in paper-scale band")
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	const maxGrowth = 64 << 20 // 64 MiB: orders below materializing 6.5M specs
	if after.HeapAlloc > before.HeapAlloc && after.HeapAlloc-before.HeapAlloc > maxGrowth {
		t.Fatalf("heap grew %d bytes streaming paper-scale snapshot (limit %d)",
			after.HeapAlloc-before.HeapAlloc, uint64(maxGrowth))
	}
}

// TestEachPackageMatchesEach pins the closed-form listing: the names
// EachPackage derives from ranks alone are the package names of the specs
// Each synthesizes, at scales that put the named apps inside and beyond
// the dynamic prefix (20000 keeps 7 of them) and move the OnPlay and
// Popular boundaries.
func TestEachPackageMatchesEach(t *testing.T) {
	for _, scale := range []int{146, 147, 200, 2500, 20000} {
		snap, err := NewSnapshot(Config{Seed: 1, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		var want, got []string
		snap.Each(func(s *Spec) error {
			want = append(want, s.Package)
			return nil
		})
		snap.EachPackage(func(pkg string) { got = append(got, pkg) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scale %d: EachPackage lists %d names, Each %d, or they differ", scale, len(got), len(want))
		}
	}
}

// TestSpecSynthesisReusesGenerators pins what synthesizing an eligible
// spec allocates. Each one draws three per-app streams (static, lint and
// URL ground truth); a fresh math/rand source for each would add about
// 4.9 KB apiece.
func TestSpecSynthesisReusesGenerators(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a share of the generators put back")
	}
	snap, err := NewSnapshot(Config{Seed: 1, Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	var ranks []int
	for r := 1; r <= snap.Counts().Popular; r++ {
		if snap.At(r).Eligible(MinDownloads, UpdateCutoff) {
			ranks = append(ranks, r)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range ranks {
		snap.At(r)
	}
	runtime.ReadMemStats(&after)
	perSpec := (after.TotalAlloc - before.TotalAlloc) / uint64(len(ranks))
	t.Logf("%d eligible specs: %d bytes each", len(ranks), perSpec)
	if perSpec > 4096 {
		t.Errorf("synthesizing an eligible spec allocates %d bytes, want at most 4096", perSpec)
	}
}
