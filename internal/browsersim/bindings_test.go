package browsersim

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/netlog"
)

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

func loadB(t *testing.T, srv *httptest.Server, log *netlog.Log) *Page {
	t.Helper()
	l := &Loader{Client: srv.Client(), Log: log, Context: "b", ExecuteScripts: true}
	page, err := l.Load(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	return page
}

func TestWindowAndNavigatorBindings(t *testing.T) {
	srv := bindingsSite(t)
	log := netlog.New()
	page := loadB(t, srv, log)
	out, err := page.Execute(`
window.addEventListener("load", function(){});
var ua = navigator.userAgent;
navigator.sendBeacon("/beacon");
var ran = 0;
setTimeout(function(){ ran = 1; }, 100);
location.host + "|" + (ua.length > 0) + "|" + ran;`)
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(out, "|")
	if len(parts) != 3 || parts[1] != "true" || parts[2] != "1" {
		t.Errorf("out = %q", out)
	}
	// Beacon hit the network with injection attribution.
	found := false
	for _, e := range log.Events() {
		if strings.HasSuffix(e.URL, "/beacon") && e.Initiator == "injection" {
			found = true
		}
	}
	if !found {
		t.Error("sendBeacon not logged")
	}
}

func TestElementMutationBindings(t *testing.T) {
	srv := bindingsSite(t)
	page := loadB(t, srv, nil)
	out, err := page.Execute(`
var a = document.getElementById("a");
var b = document.getElementById("b");
a.setAttribute("data-x", "1");
var had = a.hasAttribute("data-x");
var attr = a.getAttribute("data-x");
var missing = a.getAttribute("nope");
a.removeChild(b);
var gone = document.getElementById("b") === null;
var q = document.querySelector("#a");
var qn = document.querySelector(".does-not-exist");
had + "|" + attr + "|" + (missing === null) + "|" + gone + "|" + (q !== null) + "|" + (qn === null);`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "true|1|true|true|true|true" {
		t.Errorf("out = %q", out)
	}
}

// TestEmptyAttributesArePresent pins attribute presence as browsers
// report it: an attribute with an empty value (<html amp>, <video
// controls>, id="") is present and reads "", an absent one reads null.
func TestEmptyAttributesArePresent(t *testing.T) {
	page := NewLocalPage(&Loader{}, "https://local.test/",
		`<html amp><body><video controls></video><div id=""></div></body></html>`, false)
	out, err := page.Execute(`
var html = document.getElementsByTagName("html")[0];
var video = document.getElementsByTagName("video")[0];
var div = document.getElementsByTagName("div")[0];
[html.hasAttribute("amp"), html.getAttribute("amp") === "",
 video.hasAttribute("controls"), video.getAttribute("controls") === "",
 div.hasAttribute("id"), div.getAttribute("id") === "",
 div.hasAttribute("class"), div.getAttribute("class") === null].join(",")`)
	if err != nil {
		t.Fatal(err)
	}
	if want := "true,true,true,true,true,true,false,true"; out != want {
		t.Errorf("presence probes = %s, want %s", out, want)
	}
}

func TestDocumentTitleAndURL(t *testing.T) {
	srv := bindingsSite(t)
	page := loadB(t, srv, nil)
	out, err := page.Execute(`document.title + "|" + (document.URL === location.href)`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "B|true" {
		t.Errorf("out = %q", out)
	}
}

func TestXHRReadyStateCallback(t *testing.T) {
	srv := bindingsSite(t)
	page := loadB(t, srv, nil)
	out, err := page.Execute(`
var states = [];
var xhr = new XMLHttpRequest();
xhr.onreadystatechange = function() { states.push(this.readyState + ":" + this.status); };
xhr.open("GET", "/beacon");
xhr.setRequestHeader("X-Extra", "1");
xhr.send();
states.join(",");`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "4:204" {
		t.Errorf("states = %q", out)
	}
}

func TestFetchCatchChain(t *testing.T) {
	srv := bindingsSite(t)
	page := loadB(t, srv, nil)
	out, err := page.Execute(`
var status = 0;
fetch("/missing").then(function(r){ status = r.status; }).catch(function(){ status = -1; });
status + "";`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "404" {
		t.Errorf("fetch status = %q", out)
	}
}

func TestPerformanceBindings(t *testing.T) {
	srv := bindingsSite(t)
	page := loadB(t, srv, nil)
	out, err := page.Execute(`
var t1 = performance.now();
var t2 = performance.now();
(t2 > t1) + "|" + performance.timing.domContentLoadedEventEnd;`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "true|120" {
		t.Errorf("out = %q", out)
	}
}

func TestConsoleVariants(t *testing.T) {
	srv := bindingsSite(t)
	page := loadB(t, srv, nil)
	if _, err := page.Execute(`console.error("e"); console.warn("w"); console.info("i");`); err != nil {
		t.Fatal(err)
	}
	if len(page.Console) != 3 {
		t.Errorf("console = %v", page.Console)
	}
}

func TestSubresourceLimit(t *testing.T) {
	mux := http.NewServeMux()
	var hits int
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			hits++
			w.Write([]byte("x"))
			return
		}
		page := "<html><body>"
		for i := 0; i < 20; i++ {
			page += `<img src="/img-` + string(rune('a'+i)) + `.png">`
		}
		page += "</body></html>"
		w.Write([]byte(page))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	l := &Loader{Client: srv.Client(), MaxSubresources: 5}
	if _, err := l.Load(context.Background(), srv.URL+"/"); err != nil {
		t.Fatal(err)
	}
	if hits != 5 {
		t.Errorf("subresource fetches = %d, want 5", hits)
	}
}

// probeAPIScript exercises the sensor, storage and clipboard surfaces
// the IAB test page probes with the bytecode engine's speed budget.
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

// probeAPIWant are the interception rows the probe script must produce,
// in call order — the fixture the Figure 6 / Table 9 reporting consumes.
var probeAPIWant = []APICall{
	{Interface: "Storage", Method: "setItem"},
	{Interface: "Storage", Method: "getItem"},
	{Interface: "Storage", Method: "getItem"},
	{Interface: "Storage", Method: "setItem"},
	{Interface: "Storage", Method: "removeItem"},
	{Interface: "Storage", Method: "getItem"},
	{Interface: "Storage", Method: "clear"},
	{Interface: "DeviceMotionEvent", Method: "constructor"},
	{Interface: "DeviceMotionEvent", Method: "requestPermission"},
	{Interface: "Clipboard", Method: "writeText"},
	{Interface: "Clipboard", Method: "readText"},
}

const probeAPIWantOut = "v|true|QuotaExceededError|true|devicemotion:0|granted|copied"

// TestProbeAPIInterception asserts the new Web-API surfaces are
// intercepted per call, row for row. TestProbeAPIDifferentialParity
// (internal/jsvm) asserts the reference tree walker records the same rows.
func TestProbeAPIInterception(t *testing.T) {
	page := loadB(t, bindingsSite(t), nil)
	out, err := page.Execute(probeAPIScript)
	if err != nil {
		t.Fatal(err)
	}
	if out != probeAPIWantOut {
		t.Errorf("out = %q, want %q", out, probeAPIWantOut)
	}
	got := page.APICalls()
	if len(got) != len(probeAPIWant) {
		t.Fatalf("api calls = %+v, want %+v", got, probeAPIWant)
	}
	for i, w := range probeAPIWant {
		if got[i] != w {
			t.Errorf("api call %d = %+v, want %+v", i, got[i], w)
		}
	}
}
