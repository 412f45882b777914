// iab-probe: instrument a single app's WebView-based In-App Browser, the
// §3.2.2 deep-dive in miniature. The example installs the Facebook app
// stand-in on a simulated device, hooks its WebView with Frida-style
// instrumentation, visits the controlled measurement page through the
// app's IAB, and dumps everything the injected code did: API calls with
// arguments, bridges, inserted DOM nodes, tag counts, simHashes, perf
// logs, redirector usage and contacted endpoints.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/corpus"
)

func main() {
	study := core.NewDynamicStudy()

	// The Facebook stand-in from the corpus's named-app roster.
	n := corpus.NamedApps[0]
	spec := &corpus.Spec{
		Package: n.Package, Title: n.Title, Downloads: n.Downloads,
		OnPlayStore: true, Dynamic: n.Dynamic,
	}

	rows, srv, err := study.ProbeIABs(context.Background(), []*corpus.Spec{spec})
	if err != nil {
		log.Fatal(err)
	}
	row := rows[0]

	fmt.Printf("app: %s (%s surface)\n", row.Title, row.Surface)
	fmt.Printf("click redirector: %s\n\n", row.Redirector)

	fmt.Printf("injected JS programs: %d\n", row.InjectedJSCount)
	fmt.Printf("JS bridges exposed: %v\n\n", row.Bridges)

	fmt.Println("behaviour observations (the app side of the bridges):")
	keys := make([]string, 0, len(row.BehaviorStats))
	for k := range row.BehaviorStats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-18s %v\n", k, row.BehaviorStats[k])
	}

	fmt.Println("\nWeb APIs the injected code exercised (Table 9):")
	for _, tr := range srv.ForApp(spec.Package) {
		fmt.Printf("  %-20s %s\n", tr.Interface, tr.Method)
	}

	fmt.Println("\nendpoints contacted beyond the visited page:")
	for _, h := range row.ExternalHosts {
		fmt.Printf("  %s\n", h)
	}
}
