package callgraph

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/dalvik"
)

// appDex builds a small app exercising every traversal feature:
//
//	MainActivity.onCreate -> Helper.show -> WebView.loadUrl
//	MainActivity.onClick  -> CustomTabsIntent.launchUrl
//	DeadCode.unreachable  -> WebView.evaluateJavascript (never reached)
//	CustomWeb extends WebView; Feed.onCreate -> CustomWeb.addJavascriptInterface
func appDex(t *testing.T) *dalvik.File {
	t.Helper()
	b := dalvik.NewBuilder()
	b.Class("com.app.MainActivity", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.InvokeStatic("com.app.Helper", "show", "()void"),
		).
		VoidMethod("onClick",
			dalvik.NewInstance(android.CustomTabsIntentBuilderClass),
			dalvik.InvokeDirect(android.CustomTabsIntentBuilderClass, "<init>", "()void"),
			dalvik.InvokeVirtual(android.CustomTabsIntentBuilderClass, "build", "()CustomTabsIntent"),
			dalvik.ConstString("https://third.party"),
			dalvik.InvokeVirtual(android.CustomTabsIntentClass, android.MethodLaunchURL, "(Context,Uri)void"),
		)
	b.Class("com.app.Helper", android.ObjectClass, dalvik.AccPublic).
		Method("show", "()void", dalvik.AccPublic|dalvik.AccStatic,
			dalvik.ConstString("https://example.com"),
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadURL, "(String)void"),
			dalvik.Return(),
		)
	b.Class("com.app.DeadCode", android.ObjectClass, dalvik.AccPublic).
		VoidMethod("unreachable",
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodEvaluateJavascript, "(String,Callback)void"),
		)
	b.Class("com.app.CustomWeb", android.WebViewClass, dalvik.AccPublic).
		VoidMethod("setup")
	b.Class("com.app.Feed", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.InvokeVirtual("com.app.CustomWeb", android.MethodAddJavascriptInterface, "(Object,String)void"),
		)
	return b.MustBuild()
}

// number returns the method number of class.name, failing the test when
// the graph does not define it.
func number(t *testing.T, g *Graph, class, name string) int32 {
	t.Helper()
	for i := int32(0); i < int32(g.NumMethods()); i++ {
		if ref := g.Ref(i); ref.Class == class && ref.Name == name {
			return i
		}
	}
	t.Fatalf("%s.%s not numbered", class, name)
	return -1
}

func TestCallees(t *testing.T) {
	g := Build(appDex(t))
	onCreate := number(t, g, "com.app.MainActivity", "onCreate")
	show := number(t, g, "com.app.Helper", "show")
	if got := g.Callees(onCreate); !reflect.DeepEqual(got, []int32{show}) {
		t.Errorf("Callees(onCreate) = %v, want [%d]", got, show)
	}
	if got := g.Targets(onCreate); !reflect.DeepEqual(got, []int32{show, -1}) {
		t.Errorf("Targets(onCreate) = %v, want [%d -1] (invoke, return)", got, show)
	}
	// Helper.show only calls the external WebView method: no in-file edges.
	if c := g.Callees(show); len(c) != 0 {
		t.Errorf("Callees(Helper.show) = %v, want none", c)
	}
	if got := g.Targets(show); !reflect.DeepEqual(got, []int32{-1, -1, -1}) {
		t.Errorf("Targets(Helper.show) = %v, want all -1 (const, external invoke, return)", got)
	}
}

// TestNumbering pins the numbering contract: every defined method, in dex
// order, with Ref and Code naming its definition.
func TestNumbering(t *testing.T) {
	dex := appDex(t)
	g := Build(dex)
	if g.NumMethods() != dex.MethodCount() {
		t.Fatalf("NumMethods = %d, want %d", g.NumMethods(), dex.MethodCount())
	}
	i := int32(0)
	for ci := range dex.Classes {
		c := &dex.Classes[ci]
		for mi := range c.Methods {
			if g.Ref(i) != c.Methods[mi].Ref(c.Name) || &g.Code(i)[0] != &c.Methods[mi].Code[0] {
				t.Errorf("method %d = %v, want %v", i, g.Ref(i), c.Methods[mi].Ref(c.Name))
			}
			i++
		}
	}
}

func TestEntryPoints(t *testing.T) {
	g := Build(appDex(t))
	eps := g.EntryPoints()
	var names []string
	for _, e := range eps {
		names = append(names, e.Class+"."+e.Name)
	}
	want := []string{
		"com.app.Feed.onCreate",
		"com.app.MainActivity.onClick",
		"com.app.MainActivity.onCreate",
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("entry points = %v, want %v", names, want)
	}
}

func TestReachability(t *testing.T) {
	g := Build(appDex(t))
	if !g.Reachable(number(t, g, "com.app.Helper", "show")) {
		t.Error("Helper.show not reachable")
	}
	if g.Reachable(number(t, g, "com.app.DeadCode", "unreachable")) {
		t.Error("DeadCode.unreachable wrongly reachable")
	}
}

func TestAnalyzeUsage(t *testing.T) {
	g := Build(appDex(t))
	u := g.AnalyzeUsage(nil)

	if !u.UsesWebView() || !u.UsesCT() {
		t.Fatalf("UsesWebView=%v UsesCT=%v", u.UsesWebView(), u.UsesCT())
	}
	methods := u.MethodsCalled()
	want := []string{android.MethodAddJavascriptInterface, android.MethodLoadURL}
	if !reflect.DeepEqual(methods, want) {
		t.Errorf("MethodsCalled = %v, want %v", methods, want)
	}
	// evaluateJavascript lives in dead code and must not appear.
	for _, c := range u.WebViewCalls {
		if c.Target.Name == android.MethodEvaluateJavascript {
			t.Error("dead-code call recorded")
		}
	}
	// The loadUrl call must carry its URL hint and caller package.
	var loadURL *APICall
	for i := range u.WebViewCalls {
		if u.WebViewCalls[i].Target.Name == android.MethodLoadURL {
			loadURL = &u.WebViewCalls[i]
		}
	}
	if loadURL == nil {
		t.Fatal("loadUrl call not recorded")
	}
	if loadURL.URLHint != "https://example.com" {
		t.Errorf("URLHint = %q", loadURL.URLHint)
	}
	if loadURL.CallerPackage() != "com.app" {
		t.Errorf("CallerPackage = %q", loadURL.CallerPackage())
	}
	// Custom subclass calls are normalised to the framework class.
	var addJS *APICall
	for i := range u.WebViewCalls {
		if u.WebViewCalls[i].Target.Name == android.MethodAddJavascriptInterface {
			addJS = &u.WebViewCalls[i]
		}
	}
	if addJS == nil || addJS.Target.Class != android.WebViewClass {
		t.Errorf("addJavascriptInterface target = %+v", addJS)
	}
}

func TestAnalyzeUsageCT(t *testing.T) {
	g := Build(appDex(t))
	u := g.AnalyzeUsage(nil)
	var launch, ctor bool
	for _, c := range u.CTCalls {
		switch c.Target.Name {
		case android.MethodLaunchURL:
			launch = true
			if c.URLHint != "https://third.party" {
				t.Errorf("launchUrl hint = %q", c.URLHint)
			}
		case "<init>":
			ctor = true
		}
	}
	if !launch || !ctor {
		t.Errorf("CT calls incomplete: launch=%v ctor=%v (%+v)", launch, ctor, u.CTCalls)
	}
}

func TestExcludeClasses(t *testing.T) {
	g := Build(appDex(t))
	u := g.AnalyzeUsage(map[string]bool{"com.app.Helper": true})
	for _, c := range u.WebViewCalls {
		if c.Caller.Class == "com.app.Helper" {
			t.Error("excluded class still attributed")
		}
	}
}

func TestWebViewSubclasses(t *testing.T) {
	g := Build(appDex(t))
	got := g.WebViewSubclasses()
	if !reflect.DeepEqual(got, []string{"com.app.CustomWeb"}) {
		t.Errorf("WebViewSubclasses = %v", got)
	}
}

func TestIsSubclassOfTransitive(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("a.Base", android.WebViewClass, dalvik.AccPublic)
	b.Class("a.Mid", "a.Base", dalvik.AccPublic)
	b.Class("a.Leaf", "a.Mid", dalvik.AccPublic)
	g := Build(b.MustBuild())
	if !g.IsWebViewClass("a.Leaf") {
		t.Error("transitive subclass not detected")
	}
	if g.IsWebViewClass("a.Unknown") {
		t.Error("unknown class detected as WebView")
	}
}

func TestIsSubclassOfCycleSafe(t *testing.T) {
	// Corrupt input can contain hierarchy cycles; detection must terminate.
	f := &dalvik.File{Classes: []dalvik.Class{
		{Name: "a.A", SuperName: "a.B"},
		{Name: "a.B", SuperName: "a.A"},
	}}
	g := Build(f)
	if g.IsWebViewClass("a.A") {
		t.Error("cyclic hierarchy classified as WebView")
	}
}

// TestCyclicHierarchyTerminates resolves a call into a hierarchy cycle
// that Builder, Encode and Decode all accept: com.a.A extends com.a.B
// extends com.a.A, and the entry point A.onClick calls A.missing(), which
// neither class defines. The bounded walk gives up and counts the target
// as external; an unbounded one never returns.
func TestCyclicHierarchyTerminates(t *testing.T) {
	b := dalvik.NewBuilder()
	b.Class("com.a.A", "com.a.B", dalvik.AccPublic).
		VoidMethod("onClick", dalvik.InvokeVirtual("com.a.A", "missing", "()void"))
	b.Class("com.a.B", "com.a.A", dalvik.AccPublic)
	enc, err := dalvik.Encode(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	dex, err := dalvik.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Graph, 1)
	go func() {
		g := Build(dex)
		g.AnalyzeUsage(nil)
		done <- g
	}()
	select {
	case g := <-done:
		onClick := number(t, g, "com.a.A", "onClick")
		if got := g.Targets(onClick); !reflect.DeepEqual(got, []int32{-1, -1}) {
			t.Errorf("Targets(onClick) = %v, want [-1 -1] (external invoke, return)", got)
		}
		if !g.Reachable(onClick) {
			t.Error("entry point onClick not reachable")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Build and AnalyzeUsage did not return on a cyclic hierarchy")
	}
}

func TestVirtualDispatchThroughSuper(t *testing.T) {
	// Calling Leaf.helper() where helper is defined on Base must resolve.
	b := dalvik.NewBuilder()
	b.Class("a.Base", android.ObjectClass, dalvik.AccPublic).
		VoidMethod("helper",
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadData, "(String,String,String)void"),
		)
	b.Class("a.Leaf", "a.Base", dalvik.AccPublic)
	b.Class("a.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.InvokeVirtual("a.Leaf", "helper", "()void"),
		)
	g := Build(b.MustBuild())
	u := g.AnalyzeUsage(nil)
	if !u.UsesWebView() {
		t.Error("call through inherited method not reached")
	}
}

func TestGuardedCallStillDetected(t *testing.T) {
	// Static analysis sees through runtime guards — the paper's stated
	// false-positive source. A call inside an if-z region must be recorded.
	b := dalvik.NewBuilder()
	b.Class("a.Main", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.Instruction{Op: dalvik.OpIfZ, Int: 2},
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadURL, "(String)void"),
		)
	g := Build(b.MustBuild())
	if !g.AnalyzeUsage(nil).UsesWebView() {
		t.Error("guarded call not detected (static analysis should over-approximate)")
	}
}

func TestNoEntryPointsNoUsage(t *testing.T) {
	// A library-only dex with no components yields no reachable usage.
	b := dalvik.NewBuilder()
	b.Class("lib.Util", android.ObjectClass, dalvik.AccPublic).
		VoidMethod("render",
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadURL, "(String)void"),
		)
	g := Build(b.MustBuild())
	u := g.AnalyzeUsage(nil)
	if u.UsesWebView() {
		t.Error("usage recorded with no entry points")
	}
}

// TestHugeClassResolvesFast builds the graph of one class of 50,000
// methods, each of which invokes the last. Every resolve looks the target
// up in that class, so scanning its methods would take 50,000² / 2 string
// comparisons; the class's sorted index keeps Build well inside the
// deadline, under the race detector too.
func TestHugeClassResolvesFast(t *testing.T) {
	const n = 50000
	ms := make([]dalvik.Method, n)
	for i := range ms {
		ms[i] = dalvik.Method{
			Name:      fmt.Sprintf("m%05d", i),
			Signature: "()void",
			Code:      []dalvik.Instruction{dalvik.InvokeVirtual("a.Huge", fmt.Sprintf("m%05d", n-1), "()void")},
		}
	}
	ms[0].Name = "onClick"
	f := &dalvik.File{Classes: []dalvik.Class{{Name: "a.Huge", SuperName: android.ObjectClass, Methods: ms}}}
	const deadline = 5 * time.Second
	done := make(chan *Graph, 1)
	go func() { done <- Build(f) }()
	select {
	case g := <-done:
		for i := int32(0); i < n; i++ {
			if got := g.Targets(i); len(got) != 1 || got[0] != n-1 {
				t.Fatalf("Targets(%d) = %v, want [%d]", i, got, n-1)
			}
		}
		if !g.Reachable(n-1) || g.Reachable(1) {
			t.Error("reachability from onClick wrong")
		}
	case <-time.After(deadline):
		t.Fatalf("Build of a %d-method class took over %v", n, deadline)
	}
}

// TestRepeatedDefinitionsFirstWins builds a hand-built file that defines
// a class twice and, in a class large enough to be indexed and in a small
// one, a method twice. Decode and Validate reject such files; Build
// numbers the first definition of each and resolves calls to it.
func TestRepeatedDefinitionsFirstWins(t *testing.T) {
	big := []dalvik.Method{{Name: "onClick", Signature: "()void", Code: []dalvik.Instruction{
		dalvik.InvokeVirtual("a.Big", "dup", "()void"),
		dalvik.InvokeVirtual("a.Small", "dup", "()void"),
		dalvik.InvokeVirtual("a.Twice", "only", "()void"),
	}}}
	for i := 0; i < 20; i++ {
		big = append(big, dalvik.Method{Name: fmt.Sprintf("m%02d", i), Signature: "()void"})
		if i == 5 || i == 15 {
			big = append(big, dalvik.Method{Name: "dup", Signature: "()void"})
		}
	}
	f := &dalvik.File{Classes: []dalvik.Class{
		{Name: "a.Twice", Methods: []dalvik.Method{{Name: "only", Signature: "()void"}}},
		{Name: "a.Small", Methods: []dalvik.Method{
			{Name: "dup", Signature: "()void"}, {Name: "dup", Signature: "()void"}, {Name: "after", Signature: "()void"},
		}},
		{Name: "a.Big", Methods: big},
		{Name: "a.Twice", Methods: []dalvik.Method{{Name: "only", Signature: "()void"}, {Name: "second", Signature: "()void"}}},
	}}
	g := Build(f)
	var refs []string
	for i := int32(0); i < int32(g.NumMethods()); i++ {
		refs = append(refs, g.Ref(i).Class+"."+g.Ref(i).Name)
	}
	want := []string{"a.Twice.only", "a.Small.dup", "a.Small.after", "a.Big.onClick"}
	for i := 0; i < 20; i++ {
		want = append(want, fmt.Sprintf("a.Big.m%02d", i))
		if i == 5 {
			want = append(want, "a.Big.dup")
		}
	}
	if !reflect.DeepEqual(refs, want) {
		t.Fatalf("numbered %v, want %v", refs, want)
	}
	onClick := number(t, g, "a.Big", "onClick")
	if got, want := g.Targets(onClick), []int32{10, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("Targets(onClick) = %v, want %v", got, want)
	}
	if got := number(t, g, "a.Small", "after"); got != 2 {
		t.Errorf("a.Small.after numbered %d, want 2", got)
	}
}
