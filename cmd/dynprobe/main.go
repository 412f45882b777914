// Command dynprobe runs the paper's semi-manual dynamic analysis (§3.2)
// on a simulated device: it classifies the top-1K apps' hyperlink
// behaviour (Table 6), then instruments every WebView-based In-App Browser
// with Frida-style hooks and visits the controlled measurement page,
// reporting the injected behaviour (Table 8) and the Web APIs the injected
// code exercised (Table 9).
//
// Usage:
//
//	dynprobe [-scale N] [-seed N] [-top N] [-workers N] [-devices N]
//	         [-urls]
//	         [-cpuprofile FILE] [-memprofile FILE]
//	         [-telemetry-addr ADDR] [-metrics-out FILE] [-trace-out FILE]
//	         [-telemetry-wallclock]
//
// -devices boots that many simulated handsets on one internet and pins
// app probes to them round-robin; -workers bounds how many probes run at
// once. Outcomes merge in app order, so the tables are identical to the
// sequential (1/1) defaults.
//
// -urls cross-validates the static URL extractor against the dynamic
// probes: each probed IAB's APK is re-analysed statically and the
// extracted endpoint hosts are compared against the hosts the app actually
// contacted during the controlled visit, printed as a per-app agreement
// table (precision = static hosts confirmed dynamically, recall = dynamic
// hosts explained statically) plus a per-SDK aggregation attributing each
// pattern to the SDK (or first-party code) that produced it. Both tables
// are byte-identical across -workers and -devices settings.
//
// Observability: -telemetry-addr serves /metrics, /metrics.json, /healthz,
// /trace and /debug/pprof during the probe run; -metrics-out writes the
// final snapshot on exit ("-" for stdout). The probes surface the
// simulated browser's script-engine families (program-cache traffic, step
// budget kills).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/jsvm"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/telemetry"
)

func main() {
	scale := flag.Int("scale", 100, "corpus population divisor (must keep >= top apps)")
	seed := flag.Int64("seed", 1, "corpus generation seed")
	top := flag.Int("top", 1000, "number of top apps to classify")
	workers := flag.Int("workers", 1, "max app probes in flight (1 = sequential)")
	devices := flag.Int("devices", 1, "simulated handsets to pin app probes to")
	urls := flag.Bool("urls", false, "cross-validate static URL extraction against the probes' network logs")
	var prof profiling.Flags
	prof.Register(nil)
	var telem telemetry.Flags
	telem.Register(nil)
	flag.Parse()
	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	hub := telem.Hub(*seed)
	if err := telem.Start(); err != nil {
		log.Fatal(err)
	}
	err := run(os.Stdout, *scale, *seed, *top, *workers, *devices, *urls, hub)
	if terr := telem.Finish(); err == nil {
		err = terr
	}
	if perr := prof.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, scale int, seed int64, top, workers, devices int, urls bool, hub *telemetry.Hub) error {
	if hub != nil {
		jsvm.Instrument(hub)
	}
	fmt.Fprintf(os.Stderr, "generating corpus (seed=%d scale=1/%d)...\n", seed, scale)
	c, err := corpus.Generate(corpus.Config{Seed: seed, Scale: scale})
	if err != nil {
		return err
	}
	specs := c.Top(top)
	fmt.Fprintf(os.Stderr, "classifying %d top apps on %d device(s), %d worker(s)...\n",
		len(specs), devices, workers)

	study := core.NewDynamicStudyFleet(devices, workers)
	ctx := context.Background()
	t6, err := study.ClassifyTopApps(ctx, specs)
	if err != nil {
		return err
	}
	fmt.Fprint(out, report.Table6(t6))

	// Deep-probe the WebView IABs found.
	var iabSpecs []*corpus.Spec
	for _, pkg := range t6.WebViewIABApps {
		if spec := c.AppByPackage(pkg); spec != nil {
			iabSpecs = append(iabSpecs, spec)
		}
	}
	fmt.Fprintf(os.Stderr, "probing %d WebView-based IABs...\n", len(iabSpecs))
	rows, _, err := study.ProbeIABs(ctx, iabSpecs)
	if err != nil {
		return err
	}
	fmt.Fprint(out, report.Table8(rows))
	fmt.Fprint(out, report.Table9(rows))

	if urls {
		fmt.Fprintf(os.Stderr, "statically extracting endpoints from %d IAB APKs...\n", len(iabSpecs))
		static, err := core.StaticEndpoints(iabSpecs, nil)
		if err != nil {
			return err
		}
		agree := make([]report.AgreementRow, 0, len(rows))
		apps := make([]report.AppEndpoints, 0, len(rows))
		for _, r := range rows {
			agree = append(agree, report.Agreement(r.Package, static[r.Package], r.ExternalHosts))
			apps = append(apps, report.AppEndpoints{
				Package:      r.Package,
				Endpoints:    static[r.Package],
				DynamicHosts: r.ExternalHosts,
			})
		}
		fmt.Fprint(out, report.AgreementTable(agree))
		fmt.Fprint(out, report.SDKAgreementTable(report.SDKAgreement(apps)))
	}
	return nil
}
