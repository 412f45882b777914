package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/device"
	"repro/internal/frida"
	"repro/internal/iab"
	"repro/internal/internet"
	"repro/internal/measure"
	"repro/internal/retry"
	"repro/internal/serving"
	"repro/internal/webview"
)

// Table6 is the hyperlink-behaviour classification of the top apps
// (§3.2.1).
type Table6 struct {
	CanPostLinks   int
	OpensBrowser   int
	OpensWebView   int
	OpensCustomTab int
	NoUserContent  int
	BrowserApps    int
	Unclassifiable int
	RequiredPhone  int
	Incompatible   int
	RequiredPaid   int
	// WebViewIABApps lists the packages whose links open WebView IABs —
	// the apps the deep probe instruments next.
	WebViewIABApps []string
}

// DynamicStudy hosts the semi-manual analyses on a fleet of devices.
type DynamicStudy struct {
	// Device is the primary handset (fleet device 0); single-device
	// analyses and existing callers use it directly.
	Device *device.Device
	// Net is the in-process internet every fleet device is attached to.
	Net *internet.Internet
	// Fleet is the full device set; app probes are pinned round-robin.
	Fleet *device.Fleet
	// Workers bounds concurrently in-flight app probes (<=1 with one
	// device keeps the study strictly sequential).
	Workers int
}

// NewDynamicStudy boots a single device on a fresh internet.
func NewDynamicStudy() *DynamicStudy {
	return NewDynamicStudyFleet(1, 1)
}

// NewDynamicStudyFleet boots a fleet of identically provisioned devices on
// one internet and fans app probes across them: probe i runs on device
// i mod devices, with at most workers probes in flight. Results are merged
// in input order, so the output is identical to the sequential study.
func NewDynamicStudyFleet(devices, workers int) *DynamicStudy {
	net := internet.New()
	fleet := device.NewFleet(net, devices)
	return &DynamicStudy{Device: fleet.Device(0), Net: net, Fleet: fleet, Workers: workers}
}

// sequential reports whether the study must run one probe at a time.
func (d *DynamicStudy) sequential() bool {
	return d.Workers <= 1 && (d.Fleet == nil || d.Fleet.Size() == 1)
}

// forEachSpec runs fn(i, spec) for every spec — in order when sequential,
// otherwise fanned out under the worker pool. fn must write its result
// into slot i of a caller-owned slice; the caller merges in index order.
func (d *DynamicStudy) forEachSpec(specs []*corpus.Spec, fn func(i int, spec *corpus.Spec)) {
	if d.sequential() {
		for i, spec := range specs {
			fn(i, spec)
		}
		return
	}
	workers := d.Workers
	if workers <= 0 {
		workers = len(specs)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, spec *corpus.Spec) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i, spec)
		}(i, spec)
	}
	wg.Wait()
}

// reportPolicy is the client-side policy for beacon uploads to the
// measurement collector: a few fast retries honoring any server-advised
// Retry-After, with delays capped so a probe never stalls visibly.
func (d *DynamicStudy) reportPolicy() *retry.Policy {
	return &retry.Policy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Seed:        1,
	}
}

// pinned returns the device probe i runs on.
func (d *DynamicStudy) pinned(i int) *device.Device {
	if d.Fleet == nil {
		return d.Device
	}
	return d.Fleet.Device(i)
}

// registerRedirectors serves the click-tracking redirector hosts the IAB
// apps route links through (lm.facebook.com/l.php, l.instagram.com, t.co):
// the redirector logs the click identifier and 302s to the intended URL.
func (d *DynamicStudy) registerRedirectors(specs []*corpus.Spec) {
	seen := map[string]bool{}
	for _, spec := range specs {
		r := spec.Dynamic.UsesRedirector
		if r == "" {
			continue
		}
		host := r
		if i := strings.IndexByte(host, '/'); i >= 0 {
			host = host[:i]
		}
		if seen[host] {
			continue
		}
		seen[host] = true
		d.Net.RegisterFunc(host, func(w http.ResponseWriter, r *http.Request) {
			target := r.URL.Query().Get("u")
			if target == "" {
				http.Error(w, "missing target", http.StatusBadRequest)
				return
			}
			http.Redirect(w, r, target, http.StatusFound)
		})
	}
}

// probeURL is the benign link posted during classification (the paper
// posts https://example.com).
const probeURL = "https://example.com/"

// classKind is the outcome of classifying one app.
type classKind int

const (
	classIncompatible classKind = iota
	classNeedsPhone
	classPaid
	classBrowserApp
	classNoUserContent
	classOpensWebView
	classOpensCustomTab
	classOpensBrowser
)

type classOutcome struct {
	kind classKind
	err  error
}

// classifyOne runs the §3.2.1 probe for one app on one device: install,
// launch, look for a user-content surface, post the probe link, click it.
func (d *DynamicStudy) classifyOne(ctx context.Context, dev *device.Device, spec *corpus.Spec) classOutcome {
	app, err := dev.Install(spec)
	if err != nil {
		if errors.Is(err, device.ErrIncompatible) {
			return classOutcome{kind: classIncompatible}
		}
		return classOutcome{err: err}
	}
	sess, err := app.Launch()
	switch {
	case errors.Is(err, device.ErrNeedsPhone):
		return classOutcome{kind: classNeedsPhone}
	case errors.Is(err, device.ErrPaidOnly):
		return classOutcome{kind: classPaid}
	case err != nil:
		return classOutcome{err: err}
	}
	if sess.IsBrowser() {
		return classOutcome{kind: classBrowserApp}
	}
	if !sess.HasUserContent() {
		return classOutcome{kind: classNoUserContent}
	}
	if err := sess.PostLink(probeURL); err != nil {
		return classOutcome{err: err}
	}
	res, err := sess.ClickLink(ctx, probeURL)
	if err != nil {
		return classOutcome{err: fmt.Errorf("core: click in %s: %w", spec.Package, err)}
	}
	switch res.OpenedIn {
	case corpus.LinkWebView:
		return classOutcome{kind: classOpensWebView}
	case corpus.LinkCustomTab:
		return classOutcome{kind: classOpensCustomTab}
	default:
		return classOutcome{kind: classOpensBrowser}
	}
}

// ClassifyTopApps reproduces the §3.2.1 walk over the top apps: install
// each app, create a session, look for a user-content surface, post the
// probe link, click it, and record what happens. With a fleet, apps are
// classified concurrently (pinned to devices round-robin) and outcomes
// merged in input order, so Table 6 is identical either way.
func (d *DynamicStudy) ClassifyTopApps(ctx context.Context, specs []*corpus.Spec) (*Table6, error) {
	// Make sure the probe target exists on this internet.
	d.Net.RegisterFunc("example.com", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `<html><head><title>Example Domain</title></head><body><p>Example</p></body></html>`)
	})
	d.registerRedirectors(specs)

	outcomes := make([]classOutcome, len(specs))
	d.forEachSpec(specs, func(i int, spec *corpus.Spec) {
		outcomes[i] = d.classifyOne(ctx, d.pinned(i), spec)
	})

	t6 := &Table6{}
	for i, o := range outcomes {
		if o.err != nil {
			return nil, o.err
		}
		switch o.kind {
		case classIncompatible:
			t6.Incompatible++
			t6.Unclassifiable++
		case classNeedsPhone:
			t6.RequiredPhone++
			t6.Unclassifiable++
		case classPaid:
			t6.RequiredPaid++
			t6.Unclassifiable++
		case classBrowserApp:
			t6.BrowserApps++
		case classNoUserContent:
			t6.NoUserContent++
		case classOpensWebView:
			t6.CanPostLinks++
			t6.OpensWebView++
			t6.WebViewIABApps = append(t6.WebViewIABApps, specs[i].Package)
		case classOpensCustomTab:
			t6.CanPostLinks++
			t6.OpensCustomTab++
		case classOpensBrowser:
			t6.CanPostLinks++
			t6.OpensBrowser++
		}
	}
	sort.Strings(t6.WebViewIABApps)
	return t6, nil
}

// Table8Row is the deep-probe result for one WebView-based IAB.
type Table8Row struct {
	Package   string
	Title     string
	Downloads int64
	Surface   string // where links appear (Post, DM, Story, Bio, Profile)
	// Injection evidence, from Frida-style instrumentation.
	InjectedJSCount int
	Bridges         []string
	// Inferred intents (the Table 8 cells).
	HTMLJSIntent string
	BridgeIntent string
	// Redirector is the click-tracking redirector observed ("" if none).
	Redirector string
	// WebAPITraces are the (interface, method) pairs the controlled page
	// recorded (Table 9).
	WebAPITraces []measure.Trace
	// ExternalHosts are the endpoints beyond the measurement server the
	// IAB contacted during the controlled visit.
	ExternalHosts []string
	// BehaviorStats carries behaviour-specific observations (tag counts,
	// simhashes, ad payloads).
	BehaviorStats map[string]any
}

// measureHost is where the controlled page is served.
const measureHost = "measure.controlled.test"

// ProbeIABs performs the §3.2.2 instrumented visit for each WebView-IAB
// app: hooks the WebView, navigates it to the controlled page, lets the
// app inject, and gathers the App-WebView interactions, the Web-API
// traces from the measurement server, and the network log.
//
// The collector sits behind the hardened serving plane: beacons pass
// admission control, body caps and the bounded ingest queue before the
// drain workers deliver them to the measure sink. The limits are sized so
// the probe fleet never sheds; the retry policy on the upload path covers
// the rest. The plane is drained (all accepted beacons flushed) before
// the rows are returned.
func (d *DynamicStudy) ProbeIABs(ctx context.Context, specs []*corpus.Spec) ([]Table8Row, *measure.Server, error) {
	srv := measure.NewServer()
	svc := serving.NewService(serving.Config{
		Sink:          srv,
		Pages:         srv.Handler(),
		QueueDepth:    4096,
		Workers:       2,
		MaxConcurrent: 256,
	})
	defer svc.Close()
	d.Net.Register(measureHost, svc.Handler())
	d.registerRedirectors(specs)

	var iabSpecs []*corpus.Spec
	for _, spec := range specs {
		if spec.Dynamic.LinkOpens == corpus.LinkWebView {
			iabSpecs = append(iabSpecs, spec)
		}
	}

	type probeOutcome struct {
		row *Table8Row
		err error
	}
	outcomes := make([]probeOutcome, len(iabSpecs))
	d.forEachSpec(iabSpecs, func(i int, spec *corpus.Spec) {
		row, err := d.probeOne(ctx, d.pinned(i), spec, srv, svc)
		outcomes[i] = probeOutcome{row: row, err: err}
	})
	// Graceful drain: every beacon accepted during the probes is flushed
	// into the sink before anyone reads the tables.
	if err := svc.Drain(ctx); err != nil {
		return nil, nil, err
	}

	var rows []Table8Row
	for _, o := range outcomes {
		if o.err != nil {
			return nil, nil, o.err
		}
		rows = append(rows, *o.row)
	}
	// Downloads descending, package as a total-order tie-break so the table
	// is stable regardless of scheduling.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Downloads != rows[j].Downloads {
			return rows[i].Downloads > rows[j].Downloads
		}
		return rows[i].Package < rows[j].Package
	})
	return rows, srv, nil
}

func (d *DynamicStudy) probeOne(ctx context.Context, dev *device.Device, spec *corpus.Spec, srv *measure.Server, svc *serving.Service) (*Table8Row, error) {
	app, err := dev.App(spec.Package)
	if err != nil {
		if app, err = dev.Install(spec); err != nil {
			return nil, err
		}
	}
	sess, err := app.Launch()
	if err != nil {
		return nil, err
	}
	target := "https://" + measureHost + "/"
	if err := sess.PostLink(target); err != nil {
		return nil, err
	}

	var fridaSess *frida.Session
	res, err := sess.ClickLinkInstrumented(ctx, target, func(wv *webview.WebView) {
		fridaSess = frida.Attach(wv)
	})
	if err != nil {
		return nil, fmt.Errorf("core: probe %s: %w", spec.Package, err)
	}
	if res.WebView == nil || fridaSess == nil {
		return nil, fmt.Errorf("core: %s did not open a WebView IAB", spec.Package)
	}

	// Upload the element-level API calls the page runtime recorded, as
	// the controlled page's batch channel.
	if err := measure.ReportAPICalls(ctx, d.Net.Client(), d.reportPolicy(), "https://"+measureHost+"/collect",
		spec.Package, res.WebView.Page().APICalls()); err != nil {
		return nil, err
	}

	// Read-your-writes barrier: the serving plane's queue is asynchronous,
	// so wait for everything accepted so far to reach the sink before
	// building this app's Table 9 row from it.
	svc.Flush()

	htmlIntent, bridgeIntent := iab.InferIntent(res.Behavior)
	row := &Table8Row{
		Package:         spec.Package,
		Title:           spec.Title,
		Downloads:       spec.Downloads,
		Surface:         spec.Dynamic.LinkSurface,
		InjectedJSCount: len(fridaSess.InjectedJS()),
		Bridges:         fridaSess.Bridges(),
		HTMLJSIntent:    htmlIntent,
		BridgeIntent:    bridgeIntent,
		Redirector:      spec.Dynamic.UsesRedirector,
		WebAPITraces:    srv.ForApp(spec.Package),
		ExternalHosts:   dev.NetLog.HostsNotUnder(res.Context, measureHost),
		BehaviorStats:   iab.BehaviorStats(res.Behavior),
	}
	sort.Strings(row.Bridges)
	return row, nil
}

// BaselineShellSpec returns the Android System WebView Shell stand-in used
// as the crawl baseline (§3.2.2): a WebView IAB with no injections.
func BaselineShellSpec() *corpus.Spec {
	return &corpus.Spec{
		Package:     "org.chromium.webview_shell",
		Title:       "System WebView Shell",
		OnPlayStore: true,
		Dynamic: corpus.Dynamic{
			HasUserContent: true,
			LinkSurface:    "URL bar",
			LinkOpens:      corpus.LinkWebView,
			Injection:      corpus.InjectNone,
		},
	}
}
