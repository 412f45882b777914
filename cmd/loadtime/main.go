// Command loadtime prints the Figure 7 page-load-time comparison: the same
// page rendered in a Custom Tab (pre-warmed, speculatively loaded), in
// Chrome, in an external browser reached via intent, and in a WebView.
//
// Usage:
//
//	loadtime [-requests N] [-cpuprofile FILE] [-memprofile FILE]
//	         [-telemetry-addr ADDR] [-metrics-out FILE]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/pageload"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/telemetry"
)

func main() {
	requests := flag.Int("requests", 12, "resource requests on the measured page")
	var prof profiling.Flags
	prof.Register(nil)
	var telem telemetry.Flags
	telem.Register(nil)
	flag.Parse()
	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	// loadtime has no seed flag; deterministic timings derive from a fixed
	// one.
	telem.Hub(1)
	if err := telem.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.Figure7(pageload.Default(), *requests))
	if err := telem.Finish(); err != nil {
		log.Fatal(err)
	}
	if err := prof.Stop(); err != nil {
		log.Fatal(err)
	}
}
