package browsersim

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/internet"
	"repro/internal/netlog"
)

func testSite(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.Write([]byte(`<!DOCTYPE html>
<html><head><title>Landing</title>
<link rel="stylesheet" href="/style.css">
<script src="/app.js"></script>
</head>
<body>
<h1 id="title">Welcome</h1>
<img src="/logo.png">
<script>
console.log("inline ran, title=" + document.title);
window.__marker = document.getElementById("title").tagName;
</script>
</body></html>`))
	})
	mux.HandleFunc("/style.css", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("body{}"))
	})
	mux.HandleFunc("/app.js", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`window.__external = 40 + 2;`))
	})
	mux.HandleFunc("/logo.png", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("PNG"))
	})
	mux.HandleFunc("/ping", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("pong"))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func load(t *testing.T, srv *httptest.Server, log *netlog.Log) *Page {
	t.Helper()
	l := &Loader{
		Client:         srv.Client(),
		Log:            log,
		Context:        "wv-1",
		ExecuteScripts: true,
		Headers:        map[string]string{"X-Requested-With": "com.example.app"},
	}
	page, err := l.Load(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return page
}

func TestLoadParsesAndExecutes(t *testing.T) {
	srv := testSite(t)
	page := load(t, srv, nil)
	if page.Doc.Title != "Landing" {
		t.Errorf("title = %q", page.Doc.Title)
	}
	if len(page.Console) == 0 || !strings.Contains(page.Console[0], "title=Landing") {
		t.Errorf("console = %v", page.Console)
	}
	if got := page.VM.Global.Get("__marker").StringValue(); got != "H1" {
		t.Errorf("__marker = %q", got)
	}
	if got := page.VM.Global.Get("__external").NumberValue(); got != 42 {
		t.Errorf("__external = %v (external script did not run)", got)
	}
}

func TestNetlogRecordsAllRequests(t *testing.T) {
	srv := testSite(t)
	log := netlog.New()
	load(t, srv, log)
	events := log.Events()
	// page + style.css + app.js (subresource) + logo.png + app.js (script
	// execution refetch) — at least the four distinct URLs.
	urls := map[string]bool{}
	for _, e := range events {
		urls[e.URL] = true
		if e.Header["X-Requested-With"] != "com.example.app" {
			t.Errorf("event %s missing X-Requested-With", e.URL)
		}
		if e.Context != "wv-1" {
			t.Errorf("event context = %q", e.Context)
		}
	}
	for _, want := range []string{"/", "/style.css", "/app.js", "/logo.png"} {
		if !urls[srv.URL+want] {
			t.Errorf("missing request for %s (have %v)", want, urls)
		}
	}
	var pageInit int
	for _, e := range events {
		if e.Initiator == "page" {
			pageInit++
		}
	}
	if pageInit != 1 {
		t.Errorf("page-initiated events = %d, want 1", pageInit)
	}
}

func TestExecuteInjectedScript(t *testing.T) {
	srv := testSite(t)
	log := netlog.New()
	page := load(t, srv, log)

	out, err := page.Execute(`
(function() {
    var counts = {};
    var all = document.getElementsByTagName("*");
    for (var i = 0; i < all.length; i++) {
        var tag = all[i].tagName;
        counts[tag] = (counts[tag] || 0) + 1;
    }
    return JSON.stringify(counts);
})();`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !strings.Contains(out, `"H1":1`) || !strings.Contains(out, `"SCRIPT":2`) {
		t.Errorf("tag counts = %s", out)
	}
}

func TestInjectionInitiatedRequests(t *testing.T) {
	srv := testSite(t)
	log := netlog.New()
	page := load(t, srv, log)
	if _, err := page.Execute(`
var xhr = new XMLHttpRequest();
xhr.open("GET", "/ping");
xhr.send();
xhr.responseText;`); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	var injected []string
	for _, e := range log.Events() {
		if e.Initiator == "injection" {
			injected = append(injected, e.URL)
		}
	}
	if len(injected) != 1 || !strings.HasSuffix(injected[0], "/ping") {
		t.Errorf("injection events = %v", injected)
	}
}

func TestAPICallRecording(t *testing.T) {
	srv := testSite(t)
	page := load(t, srv, nil)
	if _, err := page.Execute(`
document.createElement("div");
document.querySelectorAll("h1");
var els = document.getElementsByTagName("img");
els[0].getAttribute("src");`); err != nil {
		t.Fatal(err)
	}
	// The page's own inline script makes the first call.
	assertAPICalls(t, page.APICalls(), []APICall{
		{"Document", "getElementById"},
		{"Document", "createElement"},
		{"Document", "querySelectorAll"},
		{"Document", "getElementsByTagName"},
		{"Element", "getAttribute"},
	})
}

func assertAPICalls(t *testing.T, got, want []APICall) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("api calls = %v\nwant %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("api call %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestAPICallInterfaceNames pins the interface each recorded call is
// filed under: the concrete element interface of the receiver node, the
// list interface of the query that built a list, and XMLHttpRequest.
func TestAPICallInterfaceNames(t *testing.T) {
	srv := testSite(t)
	page := load(t, srv, nil)
	out, err := page.Execute(`
var body = document.body;
var s = document.getElementsByTagName("script").item(1);
var h = document.querySelectorAll("h1").item(0);
var d = document.createElement("div");
body.appendChild(d);
d.setAttribute("class", "k");
var r = [body.hasAttribute("id"), s.getAttribute("src"), h.getAttribute("id"), d.hasAttribute("class"),
         body.getElementsByTagName("img").length];
body.removeChild(d);
h.addEventListener("click", function() {});
var x = new XMLHttpRequest();
x.open("GET", "/ping");
x.setRequestHeader("A", "b");
x.send();
r.push(x.status);
r.join(",");`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "false,,title,true,1,200" {
		t.Errorf("out = %q", out)
	}
	assertAPICalls(t, page.APICalls(), []APICall{
		{"Document", "getElementById"},
		{"Document", "getElementsByTagName"},
		{"HTMLCollection", "item"},
		{"Document", "querySelectorAll"},
		{"NodeList", "item"},
		{"Document", "createElement"},
		{"HTMLBodyElement", "appendChild"},
		{"Element", "setAttribute"},
		{"HTMLBodyElement", "hasAttribute"},
		{"HTMLScriptElement", "getAttribute"},
		{"Element", "getAttribute"},
		{"Element", "hasAttribute"},
		{"HTMLBodyElement", "getElementsByTagName"},
		{"HTMLBodyElement", "removeChild"},
		{"Element", "addEventListener"},
		{"XMLHttpRequest", "open"},
		{"XMLHttpRequest", "send"},
	})
}

func TestScriptInsertionTriggersFetch(t *testing.T) {
	srv := testSite(t)
	log := netlog.New()
	page := load(t, srv, log)
	// The FB/IG Listing-1 pattern: create a script element, set src,
	// insert it — the load must appear as an injection-initiated request.
	if _, err := page.Execute(`
(function(d, s, id){
    var js, fjs = d.getElementsByTagName(s)[0];
    if (d.getElementById(id)) { return; }
    js = d.createElement(s);
    js.id = id;
    js.src = "/app.js";
    fjs.parentNode.insertBefore(js, fjs);
}(document, 'script', 'autofill-sdk'));`); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range log.Events() {
		if e.Initiator == "injection" && strings.HasSuffix(e.URL, "/app.js") {
			found = true
		}
	}
	if !found {
		t.Error("inserted script src not fetched as injection")
	}
	if page.Doc.GetElementByID("autofill-sdk") == nil {
		t.Error("inserted script element not attached to DOM")
	}
}

func TestDOMMutationVisibleAcrossExecutes(t *testing.T) {
	srv := testSite(t)
	page := load(t, srv, nil)
	if _, err := page.Execute(`
var div = document.createElement("div");
div.id = "injected";
document.body.appendChild(div);`); err != nil {
		t.Fatal(err)
	}
	out, err := page.Execute(`document.getElementById("injected") ? "present" : "absent"`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "present" {
		t.Errorf("mutation lost: %s", out)
	}
}

func TestLoadErrors(t *testing.T) {
	l := &Loader{}
	if _, err := l.Load(context.Background(), "http://127.0.0.1:1/x"); err == nil {
		t.Error("unreachable host did not fail")
	}
	srv404 := httptest.NewServer(http.NotFoundHandler())
	defer srv404.Close()
	l2 := &Loader{Client: srv404.Client()}
	if _, err := l2.Load(context.Background(), srv404.URL+"/missing"); err == nil {
		t.Error("404 page did not fail")
	}
}

// TestUnresolvableScriptSrcIsSkipped: a <script src> that does not
// resolve to http(s) is not requested, logged or run, although the
// in-process internet's catch-all would answer the empty URL with HTML.
func TestUnresolvableScriptSrcIsSkipped(t *testing.T) {
	in := internet.New()
	in.RegisterFunc("site.test", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`<html><body>
<script src="data:text/javascript,1"></script>
<script src="javascript:void(0)"></script>
<script>window.__ok = 1;</script></body></html>`))
	})
	log := netlog.New()
	l := &Loader{Client: in.Client(), Log: log, ExecuteScripts: true}
	page, err := l.Load(context.Background(), "http://site.test/")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if events := log.Events(); len(events) != 1 || events[0].URL != "http://site.test/" {
		t.Errorf("netlog = %+v, want the page request alone", events)
	}
	if len(page.Console) != 0 {
		t.Errorf("console = %q, want no script error", page.Console)
	}
	if got := page.VM.Global.Get("__ok").NumberValue(); got != 1 {
		t.Error("the inline script after the skipped ones did not run")
	}
}

func TestPageScriptErrorsAreTolerated(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`<html><body><script>this is not valid js %%%</script>
<script>window.__ok = 1;</script></body></html>`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	l := &Loader{Client: srv.Client(), ExecuteScripts: true}
	page, err := l.Load(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := page.VM.Global.Get("__ok").NumberValue(); got != 1 {
		t.Error("later script did not run after a broken one")
	}
	if len(page.Console) == 0 {
		t.Error("script error not surfaced on console")
	}
}

func TestFetchBinding(t *testing.T) {
	srv := testSite(t)
	page := load(t, srv, nil)
	out, err := page.Execute(`
var got = "";
fetch("/ping").then(function(resp) { got = resp.text() + ":" + resp.status; });
got;`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "pong:200" {
		t.Errorf("fetch result = %q", out)
	}
}
