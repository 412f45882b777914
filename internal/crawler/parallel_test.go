package crawler

import (
	"context"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adb"
	"repro/internal/android"
	"repro/internal/corpus"
	"repro/internal/crux"
	"repro/internal/device"
	"repro/internal/internet"
	"repro/internal/telemetry"
)

// crawlApps is the app set the parallel tests crawl with.
var crawlApps = []string{"com.linkedin.android", "kik.android", "org.chromium.webview_shell"}

// fleetHarness boots n devices with crawl sites and IAB apps behind an ADB
// farm — the multi-device §3.2.2 rig.
func fleetHarness(tb testing.TB, devices, rateLimit int, waitScale float64) (*adb.Farm, []crux.Site) {
	return fleetHarnessHub(tb, devices, rateLimit, waitScale, nil)
}

// fleetHarnessHub is fleetHarness with a telemetry hub installed on every
// farm server.
func fleetHarnessHub(tb testing.TB, devices, rateLimit int, waitScale float64, hub *telemetry.Hub) (*adb.Farm, []crux.Site) {
	tb.Helper()
	net := internet.New()
	sites := crux.TopSites(10)
	crux.RegisterAll(net, sites)
	return fleetFarm(tb, net, devices, rateLimit, waitScale, hub), sites
}

// fleetFarm installs the crawl apps on n devices sharing net and starts
// their ADB farm.
func fleetFarm(tb testing.TB, net *internet.Internet, devices, rateLimit int, waitScale float64, hub *telemetry.Hub) *adb.Farm {
	tb.Helper()
	fleet := device.NewFleet(net, devices)

	install := func(pkg string, dyn corpus.Dynamic) {
		if err := fleet.Install(&corpus.Spec{Package: pkg, OnPlayStore: true, Dynamic: dyn}); err != nil {
			tb.Fatalf("install %s: %v", pkg, err)
		}
	}
	install("com.linkedin.android", corpus.Dynamic{
		HasUserContent: true, LinkSurface: "Post",
		LinkOpens: corpus.LinkWebView, Injection: corpus.InjectRadar,
	})
	install("kik.android", corpus.Dynamic{
		HasUserContent: true, LinkSurface: "DM",
		LinkOpens: corpus.LinkWebView, Injection: corpus.InjectAdsMulti,
	})
	install("org.chromium.webview_shell", corpus.Dynamic{
		HasUserContent: true, LinkSurface: "Bar",
		LinkOpens: corpus.LinkWebView, Injection: corpus.InjectNone,
	})

	cfg := adb.FarmConfig{WaitScale: waitScale, Telemetry: hub}
	if rateLimit > 0 {
		cfg.RateLimits = map[string]int{"kik.android": rateLimit}
	}
	farm, err := adb.StartFarm(fleet.Devices, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { farm.Close() })
	return farm
}

func crawlConfig(sites []crux.Site, workers int) Config {
	return Config{
		Apps:  crawlApps,
		Sites: sites,
		OwnDomains: map[string][]string{
			"com.linkedin.android": {"linkedin.com", "licdn.com"},
		},
		Workers: workers,
	}
}

// TestParallelCrawlMatchesSequential is the tentpole determinism check:
// a crawl fanned over 4 workers and 2 devices must produce the exact
// result a sequential single-device crawl does.
func TestParallelCrawlMatchesSequential(t *testing.T) {
	seqFarm, sites := fleetHarness(t, 1, 3, 0)
	seq, err := NewFleet(seqFarm.Clients, crawlConfig(sites, 1)).Run()
	if err != nil {
		t.Fatalf("sequential Run: %v", err)
	}

	parFarm, parSites := fleetHarness(t, 2, 3, 0)
	par, err := NewFleet(parFarm.Clients, crawlConfig(parSites, 4)).Run()
	if err != nil {
		t.Fatalf("parallel Run: %v", err)
	}

	if !reflect.DeepEqual(seq.Visits, par.Visits) {
		t.Errorf("parallel visits diverge from sequential:\nseq: %+v\npar: %+v", seq.Visits, par.Visits)
	}
	if !reflect.DeepEqual(seq.Failures, par.Failures) {
		t.Errorf("failures diverge: seq %v, par %v", seq.Failures, par.Failures)
	}
	if !reflect.DeepEqual(seq.AccountResets, par.AccountResets) {
		t.Errorf("account resets diverge: seq %v, par %v", seq.AccountResets, par.AccountResets)
	}
}

// TestParallelFailuresDeterministicOrder places a failing app between two
// healthy ones and checks failures land in canonical (app, site) order no
// matter how the lanes interleave.
func TestParallelFailuresDeterministicOrder(t *testing.T) {
	farm, sites := fleetHarness(t, 2, 0, 0)
	cfg := crawlConfig(sites, 4)
	cfg.Apps = []string{"com.linkedin.android", "com.not.installed", "kik.android"}
	res, err := NewFleet(farm.Clients, cfg).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "com.not.installed") {
		t.Fatalf("failures = %v", res.Failures)
	}
	if len(res.Visits) != 2*len(sites) {
		t.Errorf("visits = %d, want %d", len(res.Visits), 2*len(sites))
	}
	// The healthy lanes stay in app order around the failed lane.
	if res.Visits[0].App != "com.linkedin.android" || res.Visits[len(sites)].App != "kik.android" {
		t.Errorf("visit order broken: first=%s, mid=%s", res.Visits[0].App, res.Visits[len(sites)].App)
	}
}

// TestExternalHostsDeduplicated asserts the canonicalisation at visit
// construction: sorted, no duplicates.
func TestExternalHostsDeduplicated(t *testing.T) {
	farm, sites := fleetHarness(t, 1, 0, 0)
	res, err := NewFleet(farm.Clients, crawlConfig(sites, 1)).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, v := range res.Visits {
		for i := 1; i < len(v.ExternalHosts); i++ {
			if v.ExternalHosts[i-1] >= v.ExternalHosts[i] {
				t.Fatalf("%s @ %s: hosts not sorted-unique: %v", v.App, v.Site.Host, v.ExternalHosts)
			}
		}
	}
}

// laneBarrier serves the crawl sites but holds every request until
// requests from two different app lanes (told apart by the WebView's
// X-Requested-With header) are waiting at once. Once the deadline passes
// it lets everything through uncounted, so a serialised crawl finishes
// with the barrier shut instead of hanging.
type laneBarrier struct {
	mu      sync.Mutex
	waiting map[string]bool
	open    chan struct{}
	expired <-chan struct{}
}

func (b *laneBarrier) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-b.expired:
		case <-b.open:
		default:
			b.mu.Lock()
			if app := r.Header.Get(android.XRequestedWithHeader); !b.waiting[app] {
				b.waiting[app] = true
				if len(b.waiting) == 2 {
					close(b.open)
				}
			}
			b.mu.Unlock()
			select {
			case <-b.open:
			case <-b.expired:
			}
		}
		h.ServeHTTP(w, r)
	})
}

// TestCrawlLanesRunConcurrently pins that the crawl keeps visits of
// different app lanes in flight at once: with two workers, every site
// request blocks until two lanes have one waiting, which only concurrent
// lanes can reach. A crawl that serialised its lanes fails on the
// deadline instead of hanging.
func TestCrawlLanesRunConcurrently(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	b := &laneBarrier{waiting: make(map[string]bool), open: make(chan struct{}), expired: ctx.Done()}
	net := internet.New()
	sites := crux.TopSites(4)
	for _, s := range sites {
		net.Register(s.Host, b.wrap(crux.Handler(s)))
	}
	farm := fleetFarm(t, net, 1, 0, 0, nil)
	clients, err := farm.LaneClients(len(crawlApps))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewFleet(clients, crawlConfig(sites, 2)).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	select {
	case <-b.open:
	default:
		b.mu.Lock()
		defer b.mu.Unlock()
		t.Fatalf("only %d app lane(s) ever had a site request in flight at once: %v", len(b.waiting), b.waiting)
	}
	if len(res.Failures) != 0 || len(res.Visits) != len(crawlApps)*len(sites) {
		t.Errorf("%d visits, failures %v", len(res.Visits), res.Failures)
	}
}
