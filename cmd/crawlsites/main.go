// Command crawlsites reproduces the paper's 100-top-site crawl (§3.2.2,
// Figure 6): it boots a fleet of devices whose shared internet serves
// synthetic CrUX top sites, installs the WebView-IAB apps plus the System
// WebView Shell baseline on every device, starts one ADB server per
// device, and drives the crawl — launch, insert URL, tap, scroll, wait,
// collect NetLog, purge — printing the Figure 6 endpoint distributions for
// LinkedIn and Kik.
//
// Usage:
//
//	crawlsites [-sites N] [-ratelimit N] [-workers N] [-devices N]
//	           [-cpuprofile FILE] [-memprofile FILE]
//	           [-telemetry-addr ADDR] [-metrics-out FILE] [-trace-out FILE]
//	           [-telemetry-wallclock]
//
// The crawl schedules one ordered lane per app; -workers bounds how many
// visits are in flight at once across lanes and -devices splits the lanes
// over that many simulated handsets. The defaults (1/1) reproduce the
// paper's strictly sequential single-device crawl; any parallel setting
// produces byte-identical report tables, just faster.
//
// Observability: -telemetry-addr serves /metrics, /metrics.json, /healthz,
// /trace and /debug/pprof during the crawl; -metrics-out and -trace-out
// write the final snapshot and one trace per visit on exit ("-" for
// stdout). Visit totals are schedule-independent, so sequential and
// parallel crawls over the same -devices value emit identical snapshots.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/adb"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/crux"
	"repro/internal/device"
	"repro/internal/internet"
	"repro/internal/jsvm"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/telemetry"
)

func main() {
	sites := flag.Int("sites", 100, "number of top sites to crawl")
	rateLimit := flag.Int("ratelimit", 40, "clicks before an account restriction (0 = off)")
	workers := flag.Int("workers", 1, "max visits in flight across app lanes (1 = sequential)")
	devices := flag.Int("devices", 1, "simulated handsets to split app lanes over")
	var prof profiling.Flags
	prof.Register(nil)
	var telem telemetry.Flags
	telem.Register(nil)
	flag.Parse()
	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	// The crawl has no corpus seed; deterministic timings derive from a
	// fixed one.
	hub := telem.Hub(1)
	if err := telem.Start(); err != nil {
		log.Fatal(err)
	}
	_, err := run(os.Stdout, *sites, *rateLimit, *workers, *devices, hub)
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

// run crawls and writes the Figure 6 tables to out; it returns the crawl's
// result for callers that check more than the tables.
func run(out io.Writer, nSites, rateLimit, workers, devices int, hub *telemetry.Hub) (*crawler.Result, error) {
	if hub != nil {
		jsvm.Instrument(hub)
	}
	net := internet.New()
	siteList := crux.TopSites(nSites)
	crux.RegisterAll(net, siteList)
	fleet := device.NewFleet(net, devices)

	// Install the ten IAB apps and the baseline shell on every device.
	var apps []string
	ownDomains := map[string][]string{
		"com.linkedin.android": {"linkedin.com", "licdn.com"},
	}
	for i := range corpus.NamedApps {
		n := &corpus.NamedApps[i]
		if n.Dynamic.LinkOpens != corpus.LinkWebView {
			continue
		}
		spec := &corpus.Spec{Package: n.Package, Title: n.Title, Downloads: n.Downloads,
			OnPlayStore: true, Dynamic: n.Dynamic}
		if err := fleet.Install(spec); err != nil {
			return nil, err
		}
		apps = append(apps, n.Package)
	}
	baseline := core.BaselineShellSpec()
	if err := fleet.Install(baseline); err != nil {
		return nil, err
	}
	apps = append(apps, baseline.Package)

	farmCfg := adb.FarmConfig{Telemetry: hub}
	if rateLimit > 0 {
		// The paper's Facebook account restrictions.
		farmCfg.RateLimits = map[string]int{"com.facebook.katana": rateLimit}
	}
	farm, err := adb.StartFarm(fleet.Devices, farmCfg)
	if err != nil {
		return nil, err
	}
	defer farm.Close()

	// One dedicated connection per app lane: lanes sharing a device can
	// overlap their visits instead of serializing on one client.
	clients, err := farm.LaneClients(len(apps))
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(os.Stderr, "crawling %d sites with %d apps over %d device(s), %d worker(s)...\n",
		nSites, len(apps), farm.Size(), workers)
	cr := crawler.NewFleet(clients, crawler.Config{
		Apps: apps, Sites: siteList, OwnDomains: ownDomains, Workers: workers,
		Telemetry: hub,
	})
	res, err := cr.Run()
	if err != nil {
		return nil, err
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "failure: %s\n", f)
	}
	for app, n := range res.AccountResets {
		fmt.Fprintf(os.Stderr, "account resets for %s: %d\n", app, n)
	}

	fmt.Fprint(out, report.Figure6(res, "com.linkedin.android", "LinkedIn"))
	fmt.Fprint(out, report.Figure6(res, "kik.android", "Kik"))
	fmt.Fprint(out, report.Figure6(res, baseline.Package, "System WebView Shell (baseline)"))
	return res, nil
}
