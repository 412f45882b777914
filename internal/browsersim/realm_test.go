package browsersim

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/jsvm"
	"repro/internal/netlog"
)

// pageRealmScripts observe the page bindings through every path a script
// has: a bare read, typeof, `in`, hasOwnProperty, Object.keys, for-in,
// JSON.stringify, member reads, a member write, a bare write to a global
// (lost), delete, and a second read after each; and they call the
// bindings that record API calls, console lines and requests.
var pageRealmScripts = []string{
	`document.title + "," + document.body.id`,
	`typeof navigator + "," + typeof XMLHttpRequest + "," + typeof fetch + "," + typeof nope`,
	`("document" in window) + "," + ("localStorage" in window) + "," + window.hasOwnProperty("console") + "," + ("nope" in window)`,
	`Object.keys(window).join(",")`,
	`var s = []; for (var k in window) { s.push(k) } s.join(",")`,
	`var n = 0; for (var k in window) { if (window[k] !== undefined) { n++ } } n`,
	`JSON.stringify(window).length + "|" + JSON.stringify(window).slice(0, 120)`,
	`window.document === document && window["navigator"] === navigator && window.window === window`,
	`window.document = 1; document + "," + typeof window.document`,
	`window.navigator = 1; window.fetch = 2; Object.keys(window).join(",")`,
	`document = 1; typeof document + "," + document.title`,
	`navigator = 2; window.navigator = 3; navigator`,
	`delete window.navigator; typeof navigator + "," + ("navigator" in window)`,
	`delete window.console; console.log("x")`,
	`console.log("a", 1); console.warn("b"); (console.error === console.log) + "," + (console.info === console.log)`,
	`localStorage.setItem("k", "v"); localStorage.getItem("k") + localStorage.getItem("nope")`,
	`var x = new XMLHttpRequest(); x.open("GET", "/beacon"); x.send(); x.status`,
	`fetch("/beacon").then(function(r) { console.log("fetched " + r.status) }); navigator.sendBeacon("/beacon")`,
	`performance.now() + "," + performance.now() + "," + performance.timing.loadEventEnd`,
	`Math.random() + "," + Date.now() + "," + location.hostname.length`,
	`setTimeout(function() { console.log("timer") }); addEventListener("load", function() {}); window.addEventListener("x", 0)`,
	`navigator.clipboard.writeText("c"); navigator.clipboard.readText().then(function(t) { console.log(t) }); navigator.userAgent`,
	`new DeviceMotionEvent("devicemotion").interval + DeviceMotionEvent.requestPermission().then(function(s) { console.log(s) }).constructor`,
	`var a = document.getElementsByTagName("span"); a.item(0).textContent + document.querySelectorAll("div").item(0).id`,
	`function f() { return document.title } var t = ""; for (var i = 0; i < 4; i++) { t += f(); if (i == 1) { window.q = i } } t`,
	`var d = document; window.z = 1; var e = document; (d === e) + "," + BRIDGE.ping()`,
}

// pageOutcome is everything a script run leaves observable on its page.
type pageOutcome struct {
	Val, Err string
	Console  []string
	API      []APICall
	Requests []string
	ICs      [2]uint64
}

// runPageRealm runs src on a fresh page from srv, with its realm built in
// full first when built is set.
func runPageRealm(t *testing.T, srv *httptest.Server, src string, built bool) pageOutcome {
	t.Helper()
	log := netlog.New()
	l := &Loader{Client: srv.Client(), Log: log, Context: "b", ExecuteScripts: true,
		Globals: map[string]*jsvm.Object{"BRIDGE": bridgeObject()}}
	page, err := l.Load(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if built {
		buildPageRealm(page)
	}
	var out pageOutcome
	out.Val, err = page.Execute(src)
	if err != nil {
		out.Err = err.Error()
	}
	out.Console = page.Console
	out.API = page.APICalls()
	for _, e := range log.Events() {
		out.Requests = append(out.Requests, e.Initiator+" "+e.URL)
	}
	hits, misses := page.VM.ICStats()
	out.ICs = [2]uint64{hits, misses}
	return out
}

// buildPageRealm builds every pending binding of the page's realm.
func buildPageRealm(p *Page) {
	for _, k := range p.VM.Global.Keys() {
		p.VM.Global.Get(k)
	}
}

// bridgeObject is a WebView-style JS bridge the loader seeds on every page.
func bridgeObject() *jsvm.Object {
	b := jsvm.NewObject()
	b.SetFunc("ping", func(jsvm.Call) (jsvm.Value, error) { return jsvm.String("pong"), nil })
	return b
}

// TestPageRealmIsUnobservable runs each script on a fresh page and on one
// whose realm was built in full first: completion value, console lines,
// API calls, requests and inline-cache traffic must be equal.
func TestPageRealmIsUnobservable(t *testing.T) {
	srv := bindingsSite(t)
	for _, src := range pageRealmScripts {
		lazy, built := runPageRealm(t, srv, src, false), runPageRealm(t, srv, src, true)
		if !reflect.DeepEqual(lazy, built) {
			t.Errorf("%q: lazy and fully built realms differ:\n  lazy:  %+v\n  built: %+v", src, lazy, built)
		}
		if lazy.Val == "" && lazy.Err == "" {
			t.Errorf("%q: no completion value", src)
		}
	}
}

// TestPageRealmValues pins a few answers, so the lazy and built realms
// cannot agree on a wrong one.
func TestPageRealmValues(t *testing.T) {
	srv := bindingsSite(t)
	for _, c := range []struct{ src, want string }{
		{pageRealmScripts[2], "true,true,true,false"},
		{pageRealmScripts[10], "object,B"},
		{pageRealmScripts[12], "undefined,false"},
		{pageRealmScripts[14], "true,true"},
		{pageRealmScripts[7], "true"},
	} {
		if got := runPageRealm(t, srv, c.src, false); got.Val != c.want {
			t.Errorf("%s = %q (err %q), want %q", c.src, got.Val, got.Err, c.want)
		}
	}
	keys := runPageRealm(t, srv, pageRealmScripts[3], false).Val
	for _, name := range []string{"BRIDGE", "DeviceMotionEvent", "JSON", "Math", "XMLHttpRequest", "console", "document",
		"fetch", "localStorage", "location", "navigator", "performance", "setTimeout", "window"} {
		if !strings.Contains(","+keys+",", ","+name+",") {
			t.Errorf("Object.keys(window) lacks %s: %s", name, keys)
		}
	}
}

// TestPageRealmBuildsOnlyWhatIsRead pins the laziness: rendering a page
// with no script builds no binding (the realm built in full is some 200
// allocations), and a script that reads document builds the Element
// prototype its body wrapper needs but no list or XMLHttpRequest
// prototype.
func TestPageRealmBuildsOnlyWhatIsRead(t *testing.T) {
	l := &Loader{Globals: map[string]*jsvm.Object{"BRIDGE": bridgeObject()}}
	const html = `<html><body><p>x</p></body></html>`
	if n := testing.AllocsPerRun(20, func() { NewLocalPage(l, realmURL, html, true) }); n > 100 {
		t.Errorf("rendering a page with no script makes %.0f allocations: is the realm built eagerly?", n)
	}
	page := NewLocalPage(l, realmURL, html, true)
	if _, err := page.Execute(`document.body.tagName + typeof XMLHttpRequest + ("fetch" in window)`); err != nil {
		t.Fatal(err)
	}
	if page.protos.htmlCollection != nil || page.protos.nodeList != nil || page.protos.xhr != nil {
		t.Error("a list or XMLHttpRequest prototype was built, but no script made a list or a request")
	}
	if page.protos.element == nil {
		t.Error("document.body's wrapper has no Element prototype")
	}
}

// TestPageRealmSharesNoObject builds two pages' realms in full and walks every
// object reachable from each global object: none may be reachable from
// both. Per-page state (Math.random, Date.now, performance.now,
// localStorage) starts afresh on every page, and a write to a builtin
// stays on its page.
func TestPageRealmSharesNoObject(t *testing.T) {
	a, b := realmPage(t), realmPage(t)
	buildPageRealm(a)
	buildPageRealm(b)
	inA := map[*jsvm.Object]bool{}
	reachableObjects(a.VM.Global, inA)
	inB := map[*jsvm.Object]bool{}
	reachableObjects(b.VM.Global, inB)
	shared := 0
	for o := range inB {
		if inA[o] {
			shared++
		}
	}
	if shared != 0 {
		t.Errorf("%d objects reachable from two pages", shared)
	}
	if len(inB) < 40 {
		t.Errorf("walk reached only %d objects", len(inB))
	}

	const probe = `[Math.random(), Date.now(), performance.now(), localStorage.getItem("k"), typeof JSON.x].join(",")`
	if _, err := a.Execute(`localStorage.setItem("k", "v"); JSON.x = 1; "" + Math.random() + Date.now() + performance.now()`); err != nil {
		t.Fatal(err)
	}
	want := ""
	for i, p := range []*Page{b, realmPage(t), realmPage(t)} {
		if i == 2 {
			// Build Math and Date early through typeof: they still start
			// where every page starts.
			if _, err := p.Execute(`typeof Math + typeof Date + typeof performance`); err != nil {
				t.Fatal(err)
			}
		}
		got, err := p.Execute(probe)
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = got
		}
		if got != want || !strings.HasSuffix(got, ",,undefined") {
			t.Errorf("page %d: %s, want %s ending in an empty store and no JSON.x", i, got, want)
		}
	}
}

// realmURL is the base URL of the in-memory pages these tests render.
const realmURL = "https://realm.test/"

func realmPage(t *testing.T) *Page {
	t.Helper()
	return NewLocalPage(&Loader{}, realmURL, `<html><head><title>R</title></head><body><p>x</p></body></html>`, false)
}

// reachableObjects adds o and every object reachable from it through
// properties, array elements and prototypes.
func reachableObjects(o *jsvm.Object, seen map[*jsvm.Object]bool) {
	if o == nil || seen[o] {
		return
	}
	seen[o] = true
	for _, k := range o.Keys() {
		reachableObjects(o.Get(k).Object(), seen)
	}
	for _, e := range o.Elems() {
		reachableObjects(e.Object(), seen)
	}
	reachableObjects(o.Prototype(), seen)
}
