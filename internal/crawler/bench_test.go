package crawler

// Crawl-throughput benchmarks. The real crawl is dominated by fixed waits
// (20 s settle + 60 s pause per visit, §3.2.2); the simulated ADB server
// reproduces that with WaitScale, shrinking each visit's 80 s of waiting
// to 80 ms×scale of real sleeping. BenchmarkCrawlSequential pays the
// waits back-to-back, exactly like the paper's single-device crawl;
// BenchmarkCrawlParallel overlaps them across app lanes and devices —
// the wall-clock ratio is the scheduler's speedup.

import "testing"

// benchWaitScale makes each visit sleep ~24ms (80s of modelled waiting at
// 3e-4). The scale keeps waiting dominant over the simulator's CPU work —
// as in the real crawl, where the 80s of settling dwarfs everything —
// while keeping the benchmark short.
const benchWaitScale = 3e-4

func benchCrawl(b *testing.B, devices, workers int) {
	benchCrawlScaled(b, devices, workers, benchWaitScale)
}

func benchCrawlScaled(b *testing.B, devices, workers int, waitScale float64) {
	farm, sites := fleetHarness(b, devices, 0, waitScale)
	clients, err := farm.LaneClients(len(crawlApps))
	if err != nil {
		b.Fatal(err)
	}
	cfg := crawlConfig(sites, workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := NewFleet(clients, cfg).Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Failures) != 0 {
			b.Fatalf("failures: %v", res.Failures)
		}
		if len(res.Visits) != len(crawlApps)*len(sites) {
			b.Fatalf("visits = %d", len(res.Visits))
		}
	}
}

func BenchmarkCrawlSequential(b *testing.B) { benchCrawl(b, 1, 1) }

func BenchmarkCrawlParallel(b *testing.B) { benchCrawl(b, 2, 4) }

// BenchmarkCrawlCPUBytecode disables the modelled waits (WaitScale 0):
// with no sleeping, ns/op is the CPU one full crawl burns, script engine
// included.
func BenchmarkCrawlCPUBytecode(b *testing.B) {
	benchCrawlScaled(b, 1, 1, 0)
}
