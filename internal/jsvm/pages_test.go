package jsvm_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/browsersim"
	"repro/internal/jsvm"
)

// The tests in this file hold browsersim's page bindings (DOM wrappers on
// per-page interface prototypes, XHR, storage, sensor and clipboard
// probes) to the reference tree walker: a script run on a loaded page
// must complete with the same value, and leave the same intercepted API
// calls, under the walker as under the bytecode VM the page runs. They
// live in an external test package because browsersim imports jsvm;
// browsersim's own tests pin the values.

// bindingsSite serves the page browsersim's binding tests load.
func bindingsSite(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`<html><head><title>B</title><meta name="k" content="v"></head>
<body id="top"><div id="a"><span id="b">x</span></div></body></html>`))
	})
	mux.HandleFunc("/beacon", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func loadPage(t *testing.T, srv *httptest.Server) *browsersim.Page {
	t.Helper()
	l := &browsersim.Loader{Client: srv.Client(), Context: "b", ExecuteScripts: true}
	page, err := l.Load(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	return page
}

// execBoth runs script on one fresh page through Page.Execute (bytecode)
// and on another through the walker, and fails unless both complete with
// the same value. It returns the two pages.
func execBoth(t *testing.T, script string) (bc, ast *browsersim.Page) {
	t.Helper()
	srv := bindingsSite(t)
	bc, ast = loadPage(t, srv), loadPage(t, srv)
	want, err := bc.Execute(script)
	if err != nil {
		t.Fatalf("engine bytecode: %v", err)
	}
	v, err := jsvm.RunWalker(ast.VM, script)
	if err != nil {
		t.Fatalf("engine ast: %v", err)
	}
	if got := v.StringValue(); got != want {
		t.Fatalf("engines disagree: ast=%q bytecode=%q", got, want)
	}
	return bc, ast
}

// TestDifferentialPageBindings runs the scripts of browsersim's
// prototype_test.go, named after the test that pins each value.
func TestDifferentialPageBindings(t *testing.T) {
	scripts := []struct{ name, src string }{
		{"ParentNodeIsLive", `
var d = document.createElement("div");
var before = d.parentNode;
document.body.appendChild(d);
var after = d.parentNode === document.body;
var a = document.getElementById("a");
var b = document.getElementById("b");
a.removeChild(b);
(before === null) + "|" + after + "|" + (b.parentNode === null) + "|" + (a.parentNode === document.body);`},
		{"IDIsLive", `
var a = document.getElementById("a");
a.setAttribute("id", "renamed");
a.id + "|" + (document.getElementById("renamed") === a);`},
		{"TextContentIsLive", `
var a = document.getElementById("a");
var before = a.textContent;
a.removeChild(document.getElementById("b"));
before + "|" + a.textContent + "|" + document.getElementById("a").tagName;`},
		{"OperationsLiveOnPrototypes", `
var a = document.getElementById("a");
var d = document.createElement("div");
var all = document.getElementsByTagName("*");
var sel = document.querySelectorAll("div");
var x1 = new XMLHttpRequest(), x2 = new XMLHttpRequest();
[a.getAttribute === d.getAttribute,
 document.body.appendChild === d.appendChild,
 all.item === a.getElementsByTagName("span").item,
 all.item === sel.item,
 x1.open === x2.open].join(",");`},
		{"WrapperEnumeration", `
var a = document.getElementById("a");
var ks = [];
for (var k in a) { ks.push(k); }
ks.join(",") + "|" + ("tagName" in a) + "|" + a.hasOwnProperty("tagName") + "|" +
    Object.keys(a).length + "|" + JSON.stringify(a);`},
		{"ScriptWritesStayOnWrapper", `
var a = document.getElementById("a");
var d = document.createElement("div");
a.tagName = "MINE";
a.getAttribute = function() { return "shadowed"; };
var r = [a.tagName, a.getAttribute("id"), d.tagName, d.getAttribute("id"),
         a.hasOwnProperty("tagName"), Object.keys(a).join(",")];
delete a.tagName;
r.push(a.tagName);
r.join(",");`},
	}
	for _, call := range []string{
		`var f = document.getElementById("a").getAttribute; f("id");`,
		`var f = document.getElementById("a").appendChild; f.call({}, document.createElement("p"));`,
		`var f = document.getElementsByTagName("*").item; f(0);`,
		`var f = new XMLHttpRequest().open; f("GET", "/beacon");`,
	} {
		scripts = append(scripts, struct{ name, src string }{
			"DetachedOperationIsIllegalInvocation",
			`var r = "no throw"; try { ` + call + ` } catch (e) { r = e.name + ": " + e.message } r`,
		})
	}
	for _, s := range scripts {
		t.Run(s.name, func(t *testing.T) { execBoth(t, s.src) })
	}
}

// probeAPIScript is browsersim's bindings_test.go probe of the sensor,
// storage and clipboard surfaces the IAB test page exercises.
const probeAPIScript = `
var out = [];
localStorage.setItem("k", "v");
out.push(localStorage.getItem("k"));
out.push(localStorage.getItem("missing") === null);
var quota = "no";
try {
    var big = "x";
    while (big.length < 9000) { big = big + big; }
    localStorage.setItem("big", big);
} catch (e) { quota = e.name; }
out.push(quota);
localStorage.removeItem("k");
out.push(localStorage.getItem("k") === null);
localStorage.clear();
var ev = new DeviceMotionEvent("devicemotion");
out.push(ev.type + ":" + ev.acceleration.x);
var perm = "";
DeviceMotionEvent.requestPermission().then(function(p) { perm = p; });
out.push(perm);
var clip = "";
navigator.clipboard.writeText("copied").then(function() {
    navigator.clipboard.readText().then(function(s) { clip = s; });
});
out.push(clip);
out.join("|");`

// TestProbeAPIDifferentialParity runs the probe on both engines and
// asserts the recorded interception rows are identical — the
// telemetry-visible side effects the differential harness guarantees.
// browsersim's TestProbeAPIInterception pins the rows and the value.
func TestProbeAPIDifferentialParity(t *testing.T) {
	bcPage, astPage := execBoth(t, probeAPIScript)
	ast, bc := astPage.APICalls(), bcPage.APICalls()
	if len(ast) != len(bc) {
		t.Fatalf("row count: ast=%d bytecode=%d (%+v vs %+v)", len(ast), len(bc), ast, bc)
	}
	for i := range ast {
		if ast[i] != bc[i] {
			t.Errorf("row %d: ast=%+v bytecode=%+v", i, ast[i], bc[i])
		}
	}
}
