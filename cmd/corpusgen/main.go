// Command corpusgen generates a synthetic app corpus and either prints its
// ground-truth statistics or serves it as AndroZoo + Play Store HTTP
// services for external pipeline runs.
//
// Usage:
//
//	corpusgen [-scale N] [-seed N]                 print corpus statistics
//	corpusgen -preset paper                        full 146.5K-APK snapshot
//	corpusgen -serve -azoo :8081 -play :8082       serve the corpus
//
// -preset paper selects the paper's full population (6.5M repository
// entries, 146.5K analyzable APKs) and switches to streaming generation:
// specs are synthesized from their download rank on demand, so the
// repository is served — and its statistics computed — in bounded memory
// instead of materializing millions of specs. -stream forces the same
// mode at any scale.
//
// -cpuprofile/-memprofile capture pprof profiles of the generation;
// -telemetry-addr serves /metrics, /healthz and /debug/pprof (useful while
// -serve keeps the process alive); -metrics-out writes the snapshot on
// exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"

	"repro/internal/androzoo"
	"repro/internal/corpus"
	"repro/internal/playstore"
	"repro/internal/profiling"
	"repro/internal/telemetry"
)

func main() {
	scale := flag.Int("scale", 200, "population divisor (1 = paper scale)")
	seed := flag.Int64("seed", 1, "generation seed")
	preset := flag.String("preset", "", `corpus preset: "paper" = the full 146.5K-APK snapshot, streamed`)
	stream := flag.Bool("stream", false, "synthesize specs on demand (bounded memory) instead of materializing")
	serve := flag.Bool("serve", false, "serve the corpus over HTTP")
	list := flag.Int("list", 0, "list the first N filtered packages and exit")
	azooAddr := flag.String("azoo", "127.0.0.1:8081", "AndroZoo listen address")
	playAddr := flag.String("play", "127.0.0.1:8082", "Play Store listen address")
	var prof profiling.Flags
	prof.Register(nil)
	var telem telemetry.Flags
	telem.Register(nil)
	flag.Parse()
	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	telem.Hub(*seed)
	if err := telem.Start(); err != nil {
		log.Fatal(err)
	}
	finish := func() {
		if err := telem.Finish(); err != nil {
			log.Print(err)
		}
		if err := prof.Stop(); err != nil {
			log.Print(err)
		}
	}

	switch *preset {
	case "":
	case "paper":
		// The paper's full population is ~50x the default fixture; only the
		// streaming generator holds it in bounded memory.
		*scale = 1
		*stream = true
	default:
		finish()
		log.Fatalf("unknown -preset %q (supported: paper)", *preset)
	}

	cfg := corpus.Config{Seed: *seed, Scale: *scale}
	var src corpus.Source
	var counts corpus.Counts
	if *stream {
		snap, err := corpus.NewSnapshot(cfg)
		if err != nil {
			finish()
			log.Fatal(err)
		}
		src, counts = snap, snap.Counts()
	} else {
		c, err := corpus.Generate(cfg)
		if err != nil {
			finish()
			log.Fatal(err)
		}
		src, counts = c, c.Counts
	}

	if *list > 0 {
		printTop(src, *list)
		finish()
		return
	}
	if !*serve {
		printStats(cfg, counts, src)
		finish()
		return
	}

	errc := make(chan error, 2)
	go func() {
		log.Printf("AndroZoo repository on http://%s (snapshot: /snapshot, APKs: /apk/{pkg})", *azooAddr)
		errc <- http.ListenAndServe(*azooAddr, androzoo.NewServerFrom(src).Handler())
	}()
	go func() {
		log.Printf("Play Store metadata on http://%s (/v1/apps/{pkg,...}, up to %d names)", *playAddr, playstore.MaxBatch)
		errc <- http.ListenAndServe(*playAddr, playstore.NewServerFrom(src).Handler())
	}()
	log.Fatal(<-errc)
}

// printTop lists the first n filtered packages in download-rank order.
func printTop(src corpus.Source, n int) {
	printed := 0
	src.Each(func(s *corpus.Spec) error {
		if printed >= n {
			return errDone
		}
		if !s.Eligible(corpus.MinDownloads, corpus.UpdateCutoff) {
			return nil
		}
		fmt.Printf("%-40s %12d downloads  %s\n", s.Package, s.Downloads, s.PlayCategory)
		printed++
		return nil
	})
}

var errDone = fmt.Errorf("done")

func printStats(cfg corpus.Config, counts corpus.Counts, src corpus.Source) {
	fmt.Printf("corpus seed=%d scale=1/%d\n", cfg.Seed, cfg.Scale)
	fmt.Printf("  repository entries: %d\n", counts.Total)
	fmt.Printf("  on Play Store:      %d\n", counts.OnPlay)
	fmt.Printf("  100K+ downloads:    %d\n", counts.Popular)
	fmt.Printf("  actively updated:   %d\n", counts.Filtered)
	fmt.Printf("  broken APKs:        %d\n", counts.Broken)
	var wv, ct, both, seen int
	src.Each(func(s *corpus.Spec) error {
		if seen == counts.Filtered {
			// Every filtered app lives in the top download ranks; once the
			// funnel is full the remaining millions of entries cannot
			// contribute — stop streaming.
			return errDone
		}
		if !s.Eligible(corpus.MinDownloads, corpus.UpdateCutoff) {
			return nil
		}
		seen++
		if s.Broken {
			return nil
		}
		if s.UsesWebView() {
			wv++
		}
		if s.UsesCT() {
			ct++
		}
		if s.UsesWebView() && s.UsesCT() {
			both++
		}
		return nil
	})
	analyzed := counts.Analyzed
	fmt.Printf("ground truth over %d analyzable apps:\n", analyzed)
	fmt.Printf("  using WebViews: %d (%.1f%%, paper 55.7%%)\n", wv, pct(wv, analyzed))
	fmt.Printf("  using CTs:      %d (%.1f%%, paper 19.9%%)\n", ct, pct(ct, analyzed))
	fmt.Printf("  using both:     %d (%.1f%%, paper 15.0%%)\n", both, pct(both, analyzed))
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
