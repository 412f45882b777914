package urlextract

import (
	"reflect"
	"testing"

	"repro/internal/android"
	"repro/internal/callgraph"
	"repro/internal/dalvik"
	"repro/internal/sdkindex"
)

func TestConcat(t *testing.T) {
	cases := []struct {
		a, b, want Value
	}{
		{Const("https://"), Const("x.com"), Const("https://x.com")},
		{Const("https://"), Param(0), Value{Prefix: "https://", Tail: TailParam}},
		{Const("a"), Dynamic(), Value{Prefix: "a", Tail: TailDynamic}},
		{Param(1), Const(""), Param(1)},
		{Param(1), Const("x"), Value{Tail: TailDynamic, Param: 0}},
		{Dynamic(), Const("x"), Dynamic()},
	}
	for i, c := range cases {
		if got := Concat(c.a, c.b); got != c.want {
			t.Errorf("case %d: Concat(%+v, %+v) = %+v, want %+v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestJoin(t *testing.T) {
	a := Const("https://api.example.com/v1")
	b := Const("https://api.example.com/v2")
	if got := Join(a, b); got.Prefix != "https://api.example.com/v" || got.Tail != TailDynamic {
		t.Errorf("Join const/const = %+v", got)
	}
	if got := Join(a, a); got != a {
		t.Errorf("Join identity = %+v", got)
	}
	p := Value{Prefix: "https://", Tail: TailParam, Param: 2}
	if got := Join(p, p); got != p {
		t.Errorf("Join param identity = %+v", got)
	}
	if got := Join(p, Param(1)); got.Tail != TailDynamic {
		t.Errorf("Join differing params = %+v", got)
	}
	// Commutativity on a small sample.
	vals := []Value{a, b, p, Param(1), Dynamic(), Const("")}
	for _, x := range vals {
		for _, y := range vals {
			if Join(x, y) != Join(y, x) {
				t.Errorf("Join not commutative for %+v, %+v", x, y)
			}
		}
	}
}

func TestNormalizeURL(t *testing.T) {
	// Scheme and host lowercase, default ports drop, the path is
	// preserved byte-for-byte.
	cases := map[string]string{
		"HTTPS://API.Example.com/Path?Q=1": "https://api.example.com/Path?Q=1",
		"https://api.example.com:443/x":    "https://api.example.com/x",
		"http://api.example.com:80":        "http://api.example.com",
		"http://api.example.com:8080/x":    "http://api.example.com:8080/x",
		"about:blank":                      "about:blank",
		"not a url":                        "not a url",
		"https://HOST.example":             "https://host.example",
		// Empty ports drop, and so does a default port that dropping
		// another one exposes.
		"A://::":               "a://",
		"http://a.example:80:": "http://a.example",
		"https://a:443:443/x":  "https://a/x",
		"http://a::80":         "http://a",
	}
	for in, want := range cases {
		got := NormalizeURL(in)
		if got != want {
			t.Errorf("NormalizeURL(%q) = %q, want %q", in, got, want)
		}
		if again := NormalizeURL(got); again != got {
			t.Errorf("NormalizeURL not idempotent: %q -> %q -> %q", in, got, again)
		}
	}
}

func TestHostHelpers(t *testing.T) {
	if got := HostOf("https://Api.Example.com:443/x"); got != "api.example.com" {
		t.Errorf("HostOf = %q", got)
	}
	if h, partial := HostPrefixOf("https://api.ex"); !partial || h != "api.ex" {
		t.Errorf("HostPrefixOf cut mid-host = %q, %v", h, partial)
	}
	if _, partial := HostPrefixOf("https://api.example.com/pa"); partial {
		t.Error("HostPrefixOf treated a complete authority as partial")
	}
	if _, partial := HostPrefixOf("no scheme"); partial {
		t.Error("HostPrefixOf accepted a non-URL")
	}
}

// activity wraps a class body in an Activity subclass whose onCreate is an
// entry point, so the endpoints are reachable.
func extract(t *testing.T, dex *dalvik.File, exclude map[string]bool, idx *sdkindex.Index) []Endpoint {
	t.Helper()
	return New(Config{}).Extract(callgraph.Build(dex), exclude, idx)
}

func TestExtractDirectConstructor(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("com.app.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.ConstString("HTTPS://API.Example.com/v1"),
			dalvik.NewInstance("java.net.URL"),
			dalvik.InvokeDirect("java.net.URL", "<init>", "(String)void"),
		)
	eps := extract(t, b.MustBuild(), nil, nil)
	if len(eps) != 1 {
		t.Fatalf("endpoints = %+v", eps)
	}
	ep := eps[0]
	if ep.Kind != KindFull || ep.URL != "https://api.example.com/v1" ||
		ep.Host != "api.example.com" || ep.API != "URL.<init>" ||
		ep.Class != "com.app.Main" || ep.Method != "onCreate" || !ep.FirstParty {
		t.Errorf("endpoint = %+v", ep)
	}
}

func TestExtractHelperPassthrough(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("com.app.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.ConstString("https://helper.example/api"),
			dalvik.InvokeStatic("com.app.net.Api", "open", "(String)void"),
		)
	b.Class("com.app.net.Api", android.ObjectClass, dalvik.AccPublic).
		Method("open", "(String)void", dalvik.AccPublic|dalvik.AccStatic,
			dalvik.NewInstance("java.net.URL"),
			dalvik.InvokeDirect("java.net.URL", "<init>", "(String)void"),
			dalvik.Return(),
		)
	eps := extract(t, b.MustBuild(), nil, nil)
	if len(eps) != 1 {
		t.Fatalf("endpoints = %+v", eps)
	}
	ep := eps[0]
	// The endpoint belongs to the sink site (the helper), grounded by the
	// caller's constant.
	if ep.Class != "com.app.net.Api" || ep.Method != "open" ||
		ep.Kind != KindFull || ep.URL != "https://helper.example/api" {
		t.Errorf("endpoint = %+v", ep)
	}
}

func TestExtractConcatBuilder(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("com.app.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.NewInstance("java.lang.StringBuilder"),
			dalvik.InvokeDirect("java.lang.StringBuilder", "<init>", "()void"),
			dalvik.ConstString("https://cdn.example"),
			dalvik.InvokeVirtual("java.lang.StringBuilder", "append", "(String)StringBuilder"),
			dalvik.Instruction{Op: dalvik.OpMoveResult},
			dalvik.ConstString("/assets/app.js"),
			dalvik.InvokeVirtual("java.lang.StringBuilder", "append", "(String)StringBuilder"),
			dalvik.Instruction{Op: dalvik.OpMoveResult},
			dalvik.InvokeVirtual("java.lang.StringBuilder", "toString", "()String"),
			dalvik.Instruction{Op: dalvik.OpMoveResult},
			dalvik.NewInstance("java.net.URL"),
			dalvik.InvokeDirect("java.net.URL", "<init>", "(String)void"),
		)
	eps := extract(t, b.MustBuild(), nil, nil)
	if len(eps) != 1 || eps[0].Kind != KindFull || eps[0].URL != "https://cdn.example/assets/app.js" {
		t.Fatalf("endpoints = %+v", eps)
	}
}

func TestExtractPrefixTemplate(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("com.app.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.InvokeStatic("com.app.net.Api", "track", "(String)void"),
		)
	b.Class("com.app.net.Api", android.ObjectClass, dalvik.AccPublic).
		Method("track", "(String)void", dalvik.AccPublic|dalvik.AccStatic,
			dalvik.NewInstance("java.lang.StringBuilder"),
			dalvik.InvokeDirect("java.lang.StringBuilder", "<init>", "()void"),
			dalvik.ConstString("https://t.example/e?id="),
			dalvik.InvokeVirtual("java.lang.StringBuilder", "append", "(String)StringBuilder"),
			dalvik.InvokeVirtual("java.lang.StringBuilder", "append", "(String)StringBuilder"),
			dalvik.InvokeVirtual("java.lang.StringBuilder", "toString", "()String"),
			dalvik.Instruction{Op: dalvik.OpMoveResult},
			dalvik.NewInstance("java.net.URL"),
			dalvik.InvokeDirect("java.net.URL", "<init>", "(String)void"),
			dalvik.Return(),
		)
	eps := extract(t, b.MustBuild(), nil, nil)
	if len(eps) != 1 {
		t.Fatalf("endpoints = %+v", eps)
	}
	ep := eps[0]
	if ep.Kind != KindPrefix || ep.URL != "https://t.example/e?id=" ||
		ep.Host != "t.example" || ep.Class != "com.app.net.Api" || ep.Method != "track" {
		t.Errorf("endpoint = %+v", ep)
	}
}

func TestExtractReturnsConstantSummary(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("com.app.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.InvokeStatic("com.app.net.Api", "base", "()String"),
			dalvik.Instruction{Op: dalvik.OpMoveResult},
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadURL, "(String)void"),
		)
	b.Class("com.app.net.Api", android.ObjectClass, dalvik.AccPublic).
		Method("base", "()String", dalvik.AccPublic|dalvik.AccStatic,
			dalvik.NewInstance("java.lang.StringBuilder"),
			dalvik.InvokeDirect("java.lang.StringBuilder", "<init>", "()void"),
			dalvik.ConstString("https://home.example/"),
			dalvik.InvokeVirtual("java.lang.StringBuilder", "append", "(String)StringBuilder"),
			dalvik.InvokeVirtual("java.lang.StringBuilder", "toString", "()String"),
			dalvik.Instruction{Op: dalvik.OpMoveResult},
			dalvik.Instruction{Op: dalvik.OpReturnValue},
		)
	eps := extract(t, b.MustBuild(), nil, nil)
	if len(eps) != 1 || eps[0].Kind != KindFull || eps[0].URL != "https://home.example/" ||
		eps[0].Class != "com.app.Main" || eps[0].API != "WebView.loadUrl" {
		t.Fatalf("endpoints = %+v", eps)
	}
}

func TestExtractBuilderIdiomKeepsConstant(t *testing.T) {
	// The const-string precedes a custom WebView constructor; the ctor must
	// not consume it, it feeds the loadUrl that follows.
	b := dalvik.NewBuilder()
	b.Class("com.app.SdkWebView", android.WebViewClass, dalvik.AccPublic)
	b.Class("com.app.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.ConstString("https://cdn.app/content"),
			dalvik.NewInstance("com.app.SdkWebView"),
			dalvik.InvokeDirect("com.app.SdkWebView", "<init>", "(Context)void"),
			dalvik.InvokeVirtual("com.app.SdkWebView", android.MethodLoadURL, "(String)void"),
		)
	eps := extract(t, b.MustBuild(), nil, nil)
	if len(eps) != 1 || eps[0].Kind != KindFull || eps[0].URL != "https://cdn.app/content" {
		t.Fatalf("endpoints = %+v", eps)
	}
}

func TestExtractBranchJoin(t *testing.T) {
	// if (…) url = ".../a" else url = ".../b" — the two paths join to a
	// common prefix with a dynamic tail.
	b := dalvik.NewBuilder()
	b.Class("com.app.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.Instruction{Op: dalvik.OpIfZ, Int: 3},
			dalvik.ConstString("https://x.example/a"),
			dalvik.Instruction{Op: dalvik.OpGoto, Int: 2},
			dalvik.ConstString("https://x.example/b"),
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadURL, "(String)void"),
		)
	eps := extract(t, b.MustBuild(), nil, nil)
	if len(eps) != 1 {
		t.Fatalf("endpoints = %+v", eps)
	}
	if eps[0].Kind != KindPrefix || eps[0].URL != "https://x.example/" || eps[0].Host != "x.example" {
		t.Errorf("endpoint = %+v", eps[0])
	}
}

func TestExtractRecursionTerminates(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("com.app.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.ConstString("https://r.example/x"),
			dalvik.InvokeStatic("com.app.Main", "spin", "(String)void"),
		).
		Method("spin", "(String)void", dalvik.AccPublic|dalvik.AccStatic,
			dalvik.InvokeStatic("com.app.Main", "spin", "(String)void"),
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadURL, "(String)void"),
			dalvik.Return(),
		)
	eps := extract(t, b.MustBuild(), nil, nil)
	// spin's sink sees its own (recursion-widened) state; the endpoint must
	// exist and the analysis must terminate.
	if len(eps) == 0 {
		t.Fatal("no endpoints from recursive method")
	}
}

func TestExtractLaunchURLTrailingArg(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("com.app.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onClick",
			dalvik.NewInstance(android.CustomTabsIntentBuilderClass),
			dalvik.InvokeDirect(android.CustomTabsIntentBuilderClass, "<init>", "()void"),
			dalvik.InvokeVirtual(android.CustomTabsIntentBuilderClass, "build", "()CustomTabsIntent"),
			dalvik.ConstString("https://tabs.example/flow"),
			dalvik.InvokeVirtual(android.CustomTabsIntentClass, android.MethodLaunchURL, "(Context,Uri)void"),
		)
	eps := extract(t, b.MustBuild(), nil, nil)
	if len(eps) != 1 || eps[0].Kind != KindFull || eps[0].URL != "https://tabs.example/flow" ||
		eps[0].API != "CustomTabsIntent.launchUrl" {
		t.Fatalf("endpoints = %+v", eps)
	}
}

func TestExtractLoadDataWithBaseURLHistorySlot(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("com.app.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.ConstString("https://h.example/hist"),
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadDataWithBaseURL,
				"(String,String,String,String,String)void"),
		)
	eps := extract(t, b.MustBuild(), nil, nil)
	if len(eps) != 1 || eps[0].Kind != KindFull || eps[0].URL != "https://h.example/hist" {
		t.Fatalf("endpoints = %+v", eps)
	}
}

func TestExtractUnreachableAndExcluded(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("com.app.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate")
	b.Class("com.app.Dead", android.ObjectClass, dalvik.AccPublic).
		VoidMethod("never",
			dalvik.ConstString("https://dead.code/"),
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadURL, "(String)void"),
		)
	b.Class("com.app.DeepLink", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.ConstString("https://deep.example/content"),
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadURL, "(String)void"),
		)
	dex := b.MustBuild()
	eps := extract(t, dex, map[string]bool{"com.app.DeepLink": true}, nil)
	if len(eps) != 0 {
		t.Fatalf("unreachable/excluded endpoints leaked: %+v", eps)
	}
	eps = extract(t, dex, nil, nil)
	if len(eps) != 1 || eps[0].Class != "com.app.DeepLink" {
		t.Fatalf("without exclusion: %+v", eps)
	}
}

func TestExtractSDKAttribution(t *testing.T) {
	idx := sdkindex.NewIndex([]sdkindex.SDK{
		{Name: "AppLovin", Package: "com.applovin", Category: sdkindex.Advertising},
	})
	b := dalvik.NewBuilder()
	b.Class("com.app.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.InvokeStatic("com.applovin.adview.Loader", "fetch", "()void"),
		)
	b.Class("com.applovin.adview.Loader", android.ObjectClass, dalvik.AccPublic).
		Method("fetch", "()void", dalvik.AccPublic|dalvik.AccStatic,
			dalvik.ConstString("https://ads.applovin.com/load"),
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadURL, "(String)void"),
			dalvik.Return(),
		)
	eps := extract(t, b.MustBuild(), nil, idx)
	if len(eps) != 1 {
		t.Fatalf("endpoints = %+v", eps)
	}
	ep := eps[0]
	if ep.SDK != "AppLovin" || ep.SDKCategory != string(sdkindex.Advertising) || ep.FirstParty {
		t.Errorf("attribution = %+v", ep)
	}
}

func TestExtractDeterministic(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("com.app.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.ConstString("https://a.example/1"),
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadURL, "(String)void"),
			dalvik.ConstString("https://b.example/2"),
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodPostURL, "(String,byte[])void"),
		)
	dex := b.MustBuild()
	a := extract(t, dex, nil, nil)
	bb := extract(t, dex, nil, nil)
	if !reflect.DeepEqual(a, bb) {
		t.Errorf("nondeterministic extraction:\n%+v\n%+v", a, bb)
	}
	if len(a) != 2 {
		t.Errorf("endpoints = %+v", a)
	}
}

func TestFingerprintStable(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	if a.Fingerprint() != b.Fingerprint() || len(a.Fingerprint()) != 16 {
		t.Errorf("fingerprints: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	if c := New(Config{MaxStack: 8}); c.Fingerprint() == a.Fingerprint() {
		t.Error("config change did not change fingerprint")
	}
}

func TestParamTaintInterprocedural(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("com.app.DeepLinkActivity", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.InvokeVirtual("com.app.DeepLinkActivity", "openDeepLink", "()void"),
		).
		VoidMethod("openDeepLink",
			dalvik.InvokeVirtual("com.app.DeepLinkActivity", "getIntent", "()Intent"),
			dalvik.Instruction{Op: dalvik.OpMoveResult},
			dalvik.InvokeVirtual(android.IntentClass, "getDataString", "()String"),
			dalvik.Instruction{Op: dalvik.OpMoveResult},
			dalvik.InvokeStatic("com.app.LinkRouter", "route", "(String)void"),
		)
	b.Class("com.app.LinkRouter", android.ObjectClass, dalvik.AccPublic).
		Method("route", "(String)void", dalvik.AccPublic|dalvik.AccStatic,
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadURL, "(String)void"),
			dalvik.Return(),
		)
	g := callgraph.Build(b.MustBuild())
	got := ParamTaint(g, TaintConfig{
		Sources:  map[string]bool{"getIntent": true},
		Derivers: map[string]bool{"getDataString": true},
		Sinks:    map[string]bool{"loadUrl": true},
	})
	// Methods are numbered in dex order: onCreate, openDeepLink, route.
	want := [][]bool{nil, nil, {true}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("param taint = %v, want %v (route's parameter 0)", got, want)
	}
}

func TestParamTaintConstArgStaysClean(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("com.app.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.ConstString("https://fixed.example"),
			dalvik.InvokeStatic("com.app.LinkRouter", "route", "(String)void"),
		)
	b.Class("com.app.LinkRouter", android.ObjectClass, dalvik.AccPublic).
		Method("route", "(String)void", dalvik.AccPublic|dalvik.AccStatic,
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadURL, "(String)void"),
			dalvik.Return(),
		)
	g := callgraph.Build(b.MustBuild())
	got := ParamTaint(g, TaintConfig{
		Sources:  map[string]bool{"getIntent": true},
		Derivers: map[string]bool{"getDataString": true},
		Sinks:    map[string]bool{"loadUrl": true},
	})
	for id, params := range got {
		if params != nil {
			t.Errorf("unexpected taint on method %d: %v", id, params)
		}
	}
}
