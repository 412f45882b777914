package corpus

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/android"
	"repro/internal/apk"
	"repro/internal/callgraph"
	"repro/internal/sdkindex"
)

func gen(t *testing.T, scale int) *Corpus {
	t.Helper()
	c, err := Generate(Config{Seed: 1, Scale: scale})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return c
}

func TestScaledCountsFullScale(t *testing.T) {
	c := ScaledCounts(1)
	if c.Total != PaperAndrozooApps || c.OnPlay != PaperOnPlayApps ||
		c.Popular != PaperPopularApps || c.Filtered != PaperFilteredApps ||
		c.Broken != PaperBrokenAPKs || c.Analyzed != PaperAnalyzedApps {
		t.Errorf("ScaledCounts(1) = %+v", c)
	}
}

func TestScaledCountsMonotone(t *testing.T) {
	for _, scale := range []int{1, 10, 100, 500, 2000} {
		c := ScaledCounts(scale)
		if !(c.Total >= c.OnPlay && c.OnPlay >= c.Popular && c.Popular >= c.Filtered && c.Filtered >= c.Analyzed) {
			t.Errorf("scale %d: funnel not monotone: %+v", scale, c)
		}
		if c.Analyzed < 1 {
			t.Errorf("scale %d: no analyzable apps", scale)
		}
	}
}

func TestGenerateFunnelExact(t *testing.T) {
	// 146/147, 161/162 and 484/485 bracket the scales where the expected
	// broken count changes or where every filtered app falls inside the
	// dynamic prefix; 200 is staticscan's default.
	for _, scale := range []int{100, 146, 147, 161, 162, 200, 484, 485, 500, 2000} {
		c := gen(t, scale)
		counts := ScaledCounts(scale)
		if len(c.Apps) != counts.Total {
			t.Errorf("scale %d: apps = %d, want %d", scale, len(c.Apps), counts.Total)
		}
		onPlay, popular, filtered, broken := 0, 0, 0, 0
		for _, s := range c.Apps {
			if s.OnPlayStore {
				onPlay++
				if s.Downloads >= MinDownloads {
					popular++
				}
			}
			if s.Eligible(MinDownloads, UpdateCutoff) {
				filtered++
				if s.Broken {
					broken++
				}
			}
		}
		if onPlay != counts.OnPlay || popular != counts.Popular || filtered != counts.Filtered || broken != counts.Broken {
			t.Errorf("scale %d: funnel = (%d, %d, %d, %d), want (%d, %d, %d, %d)",
				scale, onPlay, popular, filtered, broken,
				counts.OnPlay, counts.Popular, counts.Filtered, counts.Broken)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := gen(t, 500)
	b := gen(t, 500)
	if len(a.Apps) != len(b.Apps) {
		t.Fatal("lengths differ")
	}
	for i := range a.Apps {
		x, y := a.Apps[i], b.Apps[i]
		if x.Package != y.Package || x.Downloads != y.Downloads || len(x.SDKs) != len(y.SDKs) {
			t.Fatalf("app %d differs: %+v vs %+v", i, x, y)
		}
	}
	// Different seed changes SDK assignment somewhere.
	c, err := Generate(Config{Seed: 2, Scale: 500})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Apps {
		if len(a.Apps[i].SDKs) != len(c.Apps[i].SDKs) {
			same = false
			break
		}
	}
	if same {
		t.Error("seed change did not alter the corpus")
	}
}

func TestGenerateRejectsBadScale(t *testing.T) {
	if _, err := Generate(Config{Scale: 0}); err == nil {
		t.Error("scale 0 accepted")
	}
}

func TestNamedAppsLeadRanking(t *testing.T) {
	c := gen(t, 100)
	top := c.Top(len(NamedApps))
	for i, n := range NamedApps {
		if top[i].Package != n.Package {
			t.Errorf("rank %d = %s, want %s", i+1, top[i].Package, n.Package)
		}
		if top[i].Downloads != n.Downloads {
			t.Errorf("%s downloads = %d", n.Package, top[i].Downloads)
		}
	}
}

func TestDownloadsMonotoneNonIncreasing(t *testing.T) {
	c := gen(t, 100)
	f := c.Filtered()
	for i := 1; i < len(f); i++ {
		if f[i].Downloads > f[i-1].Downloads {
			t.Fatalf("rank %d (%d) > rank %d (%d)", i+1, f[i].Downloads, i, f[i-1].Downloads)
		}
	}
	// Paper: every top-1K app has at least 86M downloads.
	if len(f) >= 1000 && f[999].Downloads < 86_000_000 {
		t.Errorf("rank 1000 downloads = %d, want >= 86M", f[999].Downloads)
	}
}

func TestTop1KBehaviorComposition(t *testing.T) {
	c := gen(t, 100) // filtered ≈ 1468 ≥ 1000
	top := c.Top(1000)
	if len(top) != 1000 {
		t.Fatalf("top = %d", len(top))
	}
	var wv, ct, browserLink, noUGC, browsers, phone, incompat, paid int
	for _, s := range top {
		d := s.Dynamic
		switch {
		case d.HasUserContent && d.LinkOpens == LinkWebView:
			wv++
		case d.HasUserContent && d.LinkOpens == LinkCustomTab:
			ct++
		case d.HasUserContent && d.LinkOpens == LinkBrowser:
			browserLink++
		case d.IsBrowser:
			browsers++
		case d.RequiresPhone:
			phone++
		case d.Incompatible:
			incompat++
		case d.PaidOnly:
			paid++
		default:
			noUGC++
		}
	}
	// Table 6, exactly.
	if wv != 10 || ct != 1 || browserLink != 27 || noUGC != 905 || browsers != 9 ||
		phone != 24 || incompat != 22 || paid != 2 {
		t.Errorf("composition = wv:%d ct:%d browser:%d noUGC:%d browsers:%d phone:%d incompat:%d paid:%d",
			wv, ct, browserLink, noUGC, browsers, phone, incompat, paid)
	}
}

func TestAdoptionRatesMatchPaper(t *testing.T) {
	c := gen(t, 100)
	var analyzed, wv, ct, both int
	for _, s := range c.Filtered() {
		if s.Broken {
			continue
		}
		analyzed++
		if s.UsesWebView() {
			wv++
		}
		if s.UsesCT() {
			ct++
		}
		if s.UsesWebView() && s.UsesCT() {
			both++
		}
	}
	rate := func(n int) float64 { return float64(n) / float64(analyzed) }
	if r := rate(wv); r < 0.50 || r > 0.62 {
		t.Errorf("WebView rate = %.3f, want ≈0.558", r)
	}
	if r := rate(ct); r < 0.15 || r > 0.25 {
		t.Errorf("CT rate = %.3f, want ≈0.199", r)
	}
	if r := rate(both); r < 0.10 || r > 0.20 {
		t.Errorf("both rate = %.3f, want ≈0.150", r)
	}
}

func TestSDKPackagesResolveInIndex(t *testing.T) {
	c := gen(t, 500)
	idx := sdkindex.Default()
	for _, s := range c.Filtered() {
		for _, u := range s.SDKs {
			if _, ok := idx.Lookup(u.Package + ".internal"); !ok {
				t.Fatalf("%s: SDK package %q not resolvable", s.Package, u.Package)
			}
			if len(u.WebViewMethods) == 0 && !u.UsesCT {
				t.Fatalf("%s: SDK %q assigned with no usage", s.Package, u.Package)
			}
		}
	}
}

func TestBuildAPKRoundTrip(t *testing.T) {
	c := gen(t, 500)
	var tested int
	for _, s := range c.Filtered() {
		if s.Broken || tested >= 25 {
			continue
		}
		tested++
		img, err := BuildAPK(s)
		if err != nil {
			t.Fatalf("BuildAPK(%s): %v", s.Package, err)
		}
		a, err := apk.Open(img)
		if err != nil {
			t.Fatalf("Open(%s): %v", s.Package, err)
		}
		if a.Package() != s.Package {
			t.Errorf("package = %q, want %q", a.Package(), s.Package)
		}

		// The planted ground truth must be recoverable by real analysis,
		// applying the same deep-link exclusion as the pipeline (§3.1.3).
		excl := map[string]bool{}
		for _, dl := range a.Manifest.DeepLinkActivities() {
			excl[dl] = true
		}
		g := callgraph.Build(a.Dex)
		u := g.AnalyzeUsage(excl)
		if u.UsesWebView() != s.UsesWebView() {
			t.Errorf("%s: UsesWebView analysis=%v spec=%v", s.Package, u.UsesWebView(), s.UsesWebView())
		}
		if u.UsesCT() != s.UsesCT() {
			t.Errorf("%s: UsesCT analysis=%v spec=%v", s.Package, u.UsesCT(), s.UsesCT())
		}
		// Every planted method must be observed (deep-link extras aside).
		want := map[string]bool{}
		for _, m := range s.OwnMethods {
			want[m] = true
		}
		for _, use := range s.SDKs {
			for _, m := range use.WebViewMethods {
				want[m] = true
			}
		}
		got := map[string]bool{}
		for _, m := range u.MethodsCalled() {
			got[m] = true
		}
		for m := range want {
			if !got[m] {
				t.Errorf("%s: planted method %s not recovered", s.Package, m)
			}
		}
	}
	if tested == 0 {
		t.Fatal("no apps tested")
	}
}

func TestBuildAPKDeterministic(t *testing.T) {
	c := gen(t, 500)
	s := c.Filtered()[0]
	a, err := BuildAPK(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildAPK(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("BuildAPK not deterministic")
	}
}

func TestBrokenAPKFailsToParse(t *testing.T) {
	s := &Spec{Package: "com.broken.app", Broken: true}
	img, err := BuildAPK(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apk.Open(img); !errors.Is(err, apk.ErrBroken) {
		t.Errorf("Open(broken) err = %v, want ErrBroken", err)
	}
}

func TestDeepLinkActivityExcludable(t *testing.T) {
	s := &Spec{
		Package:     "com.dl.app",
		OnPlayStore: true,
		HasDeepLink: true,
	}
	img, err := BuildAPK(s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := apk.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	dls := a.Manifest.DeepLinkActivities()
	if len(dls) != 1 {
		t.Fatalf("deep links = %v", dls)
	}
	g := callgraph.Build(a.Dex)
	// Without exclusion the deep-link host's loadUrl is visible...
	if !g.AnalyzeUsage(nil).UsesWebView() {
		t.Fatal("deep-link WebView call not planted")
	}
	// ...and excluded it disappears (the app has no other WebView code).
	excl := map[string]bool{dls[0]: true}
	if g.AnalyzeUsage(excl).UsesWebView() {
		t.Error("deep-link call not excluded")
	}
}

func TestIABAppsPlantWebViewCode(t *testing.T) {
	c := gen(t, 100)
	for _, n := range NamedApps {
		s := c.AppByPackage(n.Package)
		if s == nil {
			t.Fatalf("%s missing from corpus", n.Package)
		}
		if n.Dynamic.LinkOpens == LinkWebView && !s.UsesWebView() {
			t.Errorf("%s: WebView IAB app without WebView code", n.Package)
		}
		if n.Dynamic.LinkOpens == LinkCustomTab && !s.UsesCT() {
			t.Errorf("%s: CT IAB app without CT code", n.Package)
		}
	}
}

func TestMethodMarginalsShape(t *testing.T) {
	c := gen(t, 100)
	counts := map[string]int{}
	wvApps := 0
	for _, s := range c.Filtered() {
		if s.Broken || !s.UsesWebView() {
			continue
		}
		wvApps++
		seen := map[string]bool{}
		for _, m := range s.OwnMethods {
			seen[m] = true
		}
		for _, u := range s.SDKs {
			for _, m := range u.WebViewMethods {
				seen[m] = true
			}
		}
		for m := range seen {
			counts[m]++
		}
	}
	// Table 7 shape: loadUrl dominates; ordering of the big methods holds.
	if counts[android.MethodLoadURL] < counts[android.MethodAddJavascriptInterface] {
		t.Errorf("loadUrl (%d) < addJavascriptInterface (%d)",
			counts[android.MethodLoadURL], counts[android.MethodAddJavascriptInterface])
	}
	if counts[android.MethodAddJavascriptInterface] < counts[android.MethodLoadData] {
		t.Errorf("addJavascriptInterface (%d) < loadData (%d)",
			counts[android.MethodAddJavascriptInterface], counts[android.MethodLoadData])
	}
	if r := float64(counts[android.MethodLoadURL]) / float64(wvApps); r < 0.85 {
		t.Errorf("loadUrl rate = %.2f, want ≳0.95", r)
	}
}

func TestPlayCategoriesAssigned(t *testing.T) {
	c := gen(t, 500)
	cats := map[string]int{}
	for _, s := range c.Filtered() {
		if s.PlayCategory == "" {
			t.Fatalf("%s: empty Play category", s.Package)
		}
		cats[s.PlayCategory]++
	}
	if len(cats) < 10 {
		t.Errorf("only %d Play categories in use", len(cats))
	}
}
