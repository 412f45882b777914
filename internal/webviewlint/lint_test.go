package webviewlint

import (
	"strings"
	"testing"

	"repro/internal/android"
	"repro/internal/callgraph"
	"repro/internal/dalvik"
	"repro/internal/decompiler"
	"repro/internal/javaparser"
	"repro/internal/sdkindex"
)

func mustParse(t *testing.T, srcs ...string) []*javaparser.CompilationUnit {
	t.Helper()
	var units []*javaparser.CompilationUnit
	for _, s := range srcs {
		u, err := javaparser.Parse(s)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, s)
		}
		units = append(units, u)
	}
	return units
}

func analyzeAll(t *testing.T, app App) []Finding {
	t.Helper()
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return a.Analyze(app)
}

func ruleSet(fs []Finding) map[string]int {
	m := make(map[string]int)
	for _, f := range fs {
		m[f.Rule]++
	}
	return m
}

func TestNewValidatesRules(t *testing.T) {
	if _, err := New(Config{Rules: []string{"no-such-rule"}}); err == nil {
		t.Error("unknown rule accepted")
	}
	a, err := New(Config{Rules: []string{RuleJSEnabled}})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Enabled(RuleJSEnabled) || a.Enabled(RuleJSInterface) {
		t.Error("enablement wrong for subset config")
	}
}

func TestFingerprintTracksConfig(t *testing.T) {
	all1, _ := New(Config{})
	all2, _ := New(Config{})
	sub, _ := New(Config{Rules: []string{RuleJSEnabled}})
	if all1.Fingerprint() != all2.Fingerprint() {
		t.Error("same config, different fingerprint")
	}
	if all1.Fingerprint() == sub.Fingerprint() {
		t.Error("different config, same fingerprint")
	}
	if len(all1.Fingerprint()) != 16 {
		t.Errorf("fingerprint length = %d", len(all1.Fingerprint()))
	}
}

func TestRegistryComplete(t *testing.T) {
	if len(Rules()) < 8 {
		t.Fatalf("registry has %d rules, want >= 8", len(Rules()))
	}
	seen := map[string]bool{}
	for _, r := range Rules() {
		if r.ID == "" || r.Description == "" || r.Severity == "" {
			t.Errorf("incomplete rule %+v", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate rule ID %s", r.ID)
		}
		seen[r.ID] = true
	}
}

const settingsSrc = `package com.example.app;

class WebSetup {
    void configure() {
        Object v1 = this.getSettings();
        v1.setJavaScriptEnabled(true);
        v1.setAllowFileAccess(true);
        v1.setAllowFileAccessFromFileURLs(true);
        v1.setAllowUniversalAccessFromFileURLs(true);
        v1.setMixedContentMode(0);
        WebView.setWebContentsDebuggingEnabled(true);
        view.addJavascriptInterface(bridge, "Native");
    }
}
`

func TestConfigurationRules(t *testing.T) {
	fs := analyzeAll(t, App{Units: mustParse(t, settingsSrc)})
	got := ruleSet(fs)
	for _, want := range []string{
		RuleJSEnabled, RuleFileAccess, RuleFileURLAccess,
		RuleUniversalFileAccess, RuleMixedContent,
		RuleDebuggableWebView, RuleJSInterface,
	} {
		if got[want] != 1 {
			t.Errorf("rule %s: %d findings, want 1 (%v)", want, got[want], got)
		}
	}
	for _, f := range fs {
		if !f.FirstParty || f.SDK != "" {
			t.Errorf("no index: finding not first-party: %+v", f)
		}
		if f.Line == 0 {
			t.Errorf("finding without line: %+v", f)
		}
		def, _ := RuleByID(f.Rule)
		if f.Severity != def.Severity {
			t.Errorf("severity mismatch: %+v", f)
		}
	}
}

func TestNegativeConfigurations(t *testing.T) {
	src := `package com.example.app;
class Safe {
    void configure() {
        Object v1 = this.getSettings();
        v1.setJavaScriptEnabled(false);
        v1.setAllowFileAccess(false);
        v1.setMixedContentMode(1);
        WebView.setWebContentsDebuggingEnabled(false);
        v1.loadUrl("https://example.com");
    }
}
`
	if fs := analyzeAll(t, App{Units: mustParse(t, src)}); len(fs) != 0 {
		t.Errorf("safe configuration flagged: %+v", fs)
	}
}

func TestRuleSubsetFilters(t *testing.T) {
	a, err := New(Config{Rules: []string{RuleJSEnabled}})
	if err != nil {
		t.Fatal(err)
	}
	fs := a.Analyze(App{Units: mustParse(t, settingsSrc)})
	if len(fs) != 1 || fs[0].Rule != RuleJSEnabled {
		t.Errorf("subset config findings = %+v", fs)
	}
}

func TestSSLErrorProceed(t *testing.T) {
	pos := `package com.example.app;
import android.webkit.WebViewClient;
class Guard extends WebViewClient {
    void onReceivedSslError(WebView a0, SslErrorHandler a1, SslError a2) {
        a1.proceed();
    }
}
`
	neg := `package com.example.app;
import android.webkit.WebViewClient;
class Guard extends WebViewClient {
    void onReceivedSslError(WebView a0, SslErrorHandler a1, SslError a2) {
        a1.cancel();
    }
}
`
	notClient := `package com.example.app;
class Guard {
    void onReceivedSslError(WebView a0, SslErrorHandler a1, SslError a2) {
        a1.proceed();
    }
}
`
	if got := ruleSet(analyzeAll(t, App{Units: mustParse(t, pos)})); got[RuleSSLErrorProceed] != 1 {
		t.Errorf("proceed() in WebViewClient not flagged: %v", got)
	}
	if got := ruleSet(analyzeAll(t, App{Units: mustParse(t, neg)})); got[RuleSSLErrorProceed] != 0 {
		t.Errorf("cancel() flagged: %v", got)
	}
	if got := ruleSet(analyzeAll(t, App{Units: mustParse(t, notClient)})); got[RuleSSLErrorProceed] != 0 {
		t.Errorf("non-WebViewClient flagged: %v", got)
	}
}

// TestWebViewClientFromTheGraph: a class extending a foreign type that
// only shares WebViewClient's simple name is a client to source-level
// import resolution, which picks the first matching import, but not to
// the call graph, which decides whenever it is given.
func TestWebViewClientFromTheGraph(t *testing.T) {
	dex := dalvik.NewBuilder().
		Class("com.x.app.Handler", "com.other.WebViewClient", dalvik.AccPublic).
		Method(android.MethodOnReceivedSslError,
			"(android.webkit.WebView,android.webkit.SslErrorHandler,android.net.http.SslError)void", dalvik.AccPublic,
			dalvik.InvokeVirtual("android.webkit.SslErrorHandler", "proceed", "()void"),
			dalvik.Return()).
		VoidMethod("onClick",
			dalvik.InvokeVirtual(android.WebViewClientClass, "onPageFinished", "(android.webkit.WebView,String)void")).
		MustBuild()
	units := decompiler.Parsed(dex)
	if got := ruleSet(analyzeAll(t, App{Units: units})); got[RuleSSLErrorProceed] != 1 {
		t.Errorf("without a graph: %v, want the import-resolution finding", got)
	}
	if got := ruleSet(analyzeAll(t, App{Units: units, Graph: callgraph.Build(dex)})); got[RuleSSLErrorProceed] != 0 {
		t.Errorf("with a graph: %v, want no finding", got)
	}
}

func TestTaintIntraMethod(t *testing.T) {
	src := `package com.example.app;
class Deep {
    void onCreate() {
        Object v1 = this.getIntent();
        Object v2 = v1.getDataString();
        view.loadUrl(v2);
    }
}
`
	fs := analyzeAll(t, App{Units: mustParse(t, src)})
	got := ruleSet(fs)
	if got[RuleUnsafeLoadURL] != 1 {
		t.Fatalf("intent → loadUrl not flagged: %v", fs)
	}
	var f Finding
	for _, x := range fs {
		if x.Rule == RuleUnsafeLoadURL {
			f = x
		}
	}
	if f.Class != "com.example.app.Deep" || f.Method != "onCreate" {
		t.Errorf("finding position = %+v", f)
	}
	if !strings.Contains(f.Detail, "loadUrl") {
		t.Errorf("detail = %q", f.Detail)
	}
}

func TestTaintInlineChainAndSanitizer(t *testing.T) {
	tainted := `package com.example.app;
class Deep {
    void onCreate() {
        Object v1 = this.getIntent();
        view.loadUrl(v1.getDataString());
    }
}
`
	sanitized := `package com.example.app;
class Deep {
    void onCreate() {
        Object v1 = this.getIntent();
        Object v2 = v1.getDataString();
        view.loadUrl(Sanitizer.clean(v2));
    }
}
`
	literal := `package com.example.app;
class Deep {
    void onCreate() {
        Object v1 = this.getIntent();
        view.loadUrl("https://fixed.example");
    }
}
`
	if got := ruleSet(analyzeAll(t, App{Units: mustParse(t, tainted)})); got[RuleUnsafeLoadURL] != 1 {
		t.Errorf("inline deriver chain not flagged: %v", got)
	}
	if got := ruleSet(analyzeAll(t, App{Units: mustParse(t, sanitized)})); got[RuleUnsafeLoadURL] != 0 {
		t.Errorf("sanitized flow flagged: %v", got)
	}
	if got := ruleSet(analyzeAll(t, App{Units: mustParse(t, literal)})); got[RuleUnsafeLoadURL] != 0 {
		t.Errorf("literal URL flagged: %v", got)
	}
}

// interprocDex builds the deep-link flow in bytecode so the callgraph edge
// DeepLinkActivity.openDeepLink → LinkRouter.route exists.
func interprocDex(t *testing.T) *dalvik.File {
	t.Helper()
	b := dalvik.NewBuilder()
	b.Class("com.example.app.DeepLinkActivity", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.InvokeVirtual("com.example.app.DeepLinkActivity", "openDeepLink", "()void"),
		).
		VoidMethod("openDeepLink",
			dalvik.InvokeVirtual("com.example.app.DeepLinkActivity", "getIntent", "()Intent"),
			dalvik.Instruction{Op: dalvik.OpMoveResult},
			dalvik.InvokeVirtual(android.IntentClass, "getDataString", "()String"),
			dalvik.Instruction{Op: dalvik.OpMoveResult},
			dalvik.InvokeStatic("com.example.app.LinkRouter", "route", "(String)void"),
		)
	b.Class("com.example.app.LinkRouter", android.ObjectClass, dalvik.AccPublic).
		Method("route", "(String)void", dalvik.AccPublic|dalvik.AccStatic,
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadURL, "(String)void"),
			dalvik.Return(),
		)
	return b.MustBuild()
}

// TestInterproceduralRoundTrip is the full-pipeline check: build bytecode,
// decompile it, parse the decompiled source, and lint with the call graph —
// the tainted intent datum must be tracked through the static route() call
// into the loadUrl sink in the other class.
func TestInterproceduralRoundTrip(t *testing.T) {
	dex := interprocDex(t)
	g := callgraph.Build(dex)
	var units []*javaparser.CompilationUnit
	for _, du := range decompiler.Decompile(dex) {
		u, err := javaparser.Parse(du.Source)
		if err != nil {
			t.Fatalf("parse decompiled %s: %v\n%s", du.Path, err, du.Source)
		}
		units = append(units, u)
	}
	fs := analyzeAll(t, App{Units: units, Graph: g})
	var hit *Finding
	for i := range fs {
		if fs[i].Rule == RuleUnsafeLoadURL {
			hit = &fs[i]
		}
	}
	if hit == nil {
		t.Fatalf("interprocedural flow not found; findings = %+v", fs)
	}
	if hit.Class != "com.example.app.LinkRouter" || hit.Method != "route" {
		t.Errorf("sink attributed to %s.%s, want LinkRouter.route", hit.Class, hit.Method)
	}
}

// TestInterproceduralNeedsGraph pins that the cross-class step genuinely
// rides on the callgraph edge: same sources, no graph, no finding.
func TestInterproceduralNeedsGraph(t *testing.T) {
	dex := interprocDex(t)
	var units []*javaparser.CompilationUnit
	for _, du := range decompiler.Decompile(dex) {
		u, err := javaparser.Parse(du.Source)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, u)
	}
	fs := analyzeAll(t, App{Units: units})
	if got := ruleSet(fs); got[RuleUnsafeLoadURL] != 0 {
		t.Errorf("cross-class taint without graph: %+v", fs)
	}
}

func TestSDKAttribution(t *testing.T) {
	idx := sdkindex.NewIndex([]sdkindex.SDK{
		{Name: "AppLovin", Package: "com.applovin", Category: sdkindex.Advertising, WebViewApps: 1},
		{Name: "Google", Package: "com.google.android", Category: sdkindex.Utility, Excluded: true},
	})
	src := []string{
		`package com.applovin.adview;
class Ad { void show() { Object v1 = this.getSettings(); v1.setJavaScriptEnabled(true); } }`,
		`package com.google.android.gms;
class G { void show() { Object v1 = this.getSettings(); v1.setJavaScriptEnabled(true); } }`,
		`package com.example.app;
class A { void show() { Object v1 = this.getSettings(); v1.setJavaScriptEnabled(true); } }`,
	}
	fs := analyzeAll(t, App{Units: mustParse(t, src...), Index: idx})
	if len(fs) != 3 {
		t.Fatalf("findings = %+v", fs)
	}
	byClass := map[string]Finding{}
	for _, f := range fs {
		byClass[f.Class] = f
	}
	if f := byClass["com.applovin.adview.Ad"]; f.SDK != "AppLovin" || f.FirstParty ||
		f.SDKCategory != string(sdkindex.Advertising) {
		t.Errorf("SDK attribution wrong: %+v", f)
	}
	if f := byClass["com.google.android.gms.G"]; f.SDK != "" || !f.FirstParty {
		t.Errorf("excluded entry must attribute first-party: %+v", f)
	}
	if f := byClass["com.example.app.A"]; f.SDK != "" || !f.FirstParty {
		t.Errorf("unlabeled package must attribute first-party: %+v", f)
	}
}

func TestDeterministicOrder(t *testing.T) {
	units := mustParse(t, settingsSrc,
		`package com.aaa; class Z { void m() { Object v1 = this.getSettings(); v1.setJavaScriptEnabled(true); } }`)
	app := App{Units: units}
	first := analyzeAll(t, app)
	for i := 0; i < 5; i++ {
		again := analyzeAll(t, app)
		if len(again) != len(first) {
			t.Fatalf("run %d: %d findings vs %d", i, len(again), len(first))
		}
		for j := range again {
			if again[j] != first[j] {
				t.Fatalf("run %d: finding %d differs: %+v vs %+v", i, j, again[j], first[j])
			}
		}
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.Class > b.Class || (a.Class == b.Class && a.Line > b.Line) {
			t.Errorf("findings unsorted: %+v before %+v", a, b)
		}
	}
}
