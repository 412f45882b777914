package measure

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/android"
	"repro/internal/webview"
)

func setup(t *testing.T) (*Server, *httptest.Server, *webview.WebView) {
	t.Helper()
	srv := NewServer()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	wv := webview.New(webview.Config{ID: "wv", AppPackage: "com.facebook.katana", Client: hs.Client()})
	wv.GetSettings().JavaScriptEnabled = true
	return srv, hs, wv
}

func TestTestPageLoadsAndInstallsTrace(t *testing.T) {
	srv, hs, wv := setup(t)
	if err := wv.LoadURL(context.Background(), hs.URL+"/"); err != nil {
		t.Fatalf("LoadURL: %v", err)
	}
	page := wv.Page()
	if page.Doc.Title != "HTML5 Test Page" {
		t.Errorf("title = %q", page.Doc.Title)
	}
	if got := page.VM.Global.Get("__traceInstalled").Truthy(); !got {
		t.Fatalf("trace.js did not install (console: %v)", page.Console)
	}
	_ = srv
}

func TestInjectedCallsAreReported(t *testing.T) {
	srv, hs, wv := setup(t)
	if err := wv.LoadURL(context.Background(), hs.URL+"/"); err != nil {
		t.Fatal(err)
	}
	// Injected code uses document APIs; the wrapped methods must phone
	// home with the app attribution from X-Requested-With.
	err := wv.EvaluateJavascript(`
document.getElementById("checkout-form");
document.createElement("script");
document.querySelectorAll("input");`, nil)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	traces := srv.ForApp("com.facebook.katana")
	want := map[[2]string]bool{
		{"Document", "getElementById"}:   false,
		{"Document", "createElement"}:    false,
		{"Document", "querySelectorAll"}: false,
	}
	for _, tr := range traces {
		key := [2]string{tr.Interface, tr.Method}
		if _, ok := want[key]; ok {
			want[key] = true
		}
	}
	for key, seen := range want {
		if !seen {
			t.Errorf("trace %v not collected (have %+v)", key, traces)
		}
	}
}

func TestWrappedMethodsStillWork(t *testing.T) {
	_, hs, wv := setup(t)
	if err := wv.LoadURL(context.Background(), hs.URL+"/"); err != nil {
		t.Fatal(err)
	}
	var result string
	if err := wv.EvaluateJavascript(`document.getElementById("top").tagName`, func(r string) { result = r }); err != nil {
		t.Fatal(err)
	}
	if result != "BODY" {
		t.Errorf("wrapped getElementById broken: %q", result)
	}
}

func TestBatchReport(t *testing.T) {
	srv, hs, wv := setup(t)
	if err := wv.LoadURL(context.Background(), hs.URL+"/"); err != nil {
		t.Fatal(err)
	}
	if err := wv.EvaluateJavascript(`
var metas = document.getElementsByTagName("meta");
metas[0].getAttribute("charset");`, nil); err != nil {
		t.Fatal(err)
	}
	// Upload the runtime-recorded element-level calls.
	if err := ReportAPICalls(context.Background(), hs.Client(), hs.URL+"/collect", "com.facebook.katana", wv.Page().APICalls()); err != nil {
		t.Fatalf("ReportAPICalls: %v", err)
	}
	var sawElementCall bool
	for _, tr := range srv.ForApp("com.facebook.katana") {
		if tr.Interface == "HTMLMetaElement" && tr.Method == "getAttribute" {
			sawElementCall = true
		}
	}
	if !sawElementCall {
		t.Errorf("element-level trace missing: %+v", srv.ForApp("com.facebook.katana"))
	}
}

func TestNoInjectionNoTraces(t *testing.T) {
	srv, hs, wv := setup(t)
	if err := wv.LoadURL(context.Background(), hs.URL+"/"); err != nil {
		t.Fatal(err)
	}
	// A plain page load makes no wrapped calls after trace installation:
	// Snapchat/Twitter/Reddit show empty Table 9 rows.
	if got := srv.ForApp("com.facebook.katana"); len(got) != 0 {
		t.Errorf("traces without injection: %+v", got)
	}
}

func TestCollectRejectsMalformedBatch(t *testing.T) {
	srv := NewServer()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cases := []struct {
		name string
		body string
		want int
	}{
		{"garbage", "{not json", http.StatusBadRequest},
		{"wrong shape", `{"app":"x"}`, http.StatusBadRequest},
		{"trailing data", `[]{"x":1}`, http.StatusBadRequest},
		{"trailing bracket", `[]]`, http.StatusBadRequest},
		{"trailing brace", `[{"interface":"a","method":"b"}]}`, http.StatusBadRequest},
		{"trailing brackets", `[{"interface":"a"}]]]]`, http.StatusBadRequest},
		{"null", `null`, http.StatusBadRequest},
		{"empty beacon", `[{"app":"com.x"}]`, http.StatusBadRequest},
		{"empty batch", " [ ]\n", http.StatusNoContent},
		{"valid", `[{"interface":"Document","method":"createElement"}]`, http.StatusNoContent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+"/collect", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("POST %q = %d, want %d", tc.body, resp.StatusCode, tc.want)
			}
		})
	}
	if got := srv.Beacons(); got != 1 {
		t.Errorf("traces after malformed batches = %d, want only the valid one", got)
	}
}

func TestCollectCapsBodySize(t *testing.T) {
	srv := NewServer()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	huge := `[{"interface":"Document","method":"` + strings.Repeat("m", MaxCollectBody) + `"}]`
	resp, err := http.Post(hs.URL+"/collect", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch = %d, want 413", resp.StatusCode)
	}
	if got := srv.Beacons(); got != 0 {
		t.Errorf("oversized batch recorded %d traces", got)
	}
}

func TestCollectGetRejectsEmptyBeacon(t *testing.T) {
	srv := NewServer()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/collect")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /collect with no params = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/collect?iface=Document&method=createElement")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("GET /collect with params = %d, want 204", resp.StatusCode)
	}
}

func TestCollectRefusesOtherMethods(t *testing.T) {
	srv := NewServer()
	h := srv.Handler()
	for _, method := range []string{http.MethodHead, http.MethodPut, http.MethodDelete, http.MethodPatch} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, "/collect?iface=I&method=m", strings.NewReader(`[{"interface":"I","method":"m"}]`))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s /collect = %d, want 405", method, rec.Code)
		}
	}
	if got := srv.Beacons(); got != 0 {
		t.Errorf("refused methods recorded %d beacons", got)
	}
}

// TestConcurrentAggregationMatchesSequential posts the same seeded beacons
// through the handler from one client and from four at once: counting is
// commutative, so both must give the same Counts.
func TestConcurrentAggregationMatchesSequential(t *testing.T) {
	post := func(h http.Handler, c int) {
		rng := rand.New(rand.NewSource(int64(c) + 7))
		for i := 0; i < 50; i++ {
			body := fmt.Sprintf(`[{"interface":"Iface%d","method":"m%d"}]`, rng.Intn(3), rng.Intn(5))
			req := httptest.NewRequest(http.MethodPost, "/collect", strings.NewReader(body))
			req.Header.Set(android.XRequestedWithHeader, fmt.Sprintf("com.app%d", rng.Intn(4)))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusNoContent {
				t.Errorf("POST %s = %d", body, rec.Code)
			}
		}
	}
	const clients = 4
	seq := NewServer()
	for c := 0; c < clients; c++ {
		post(seq.Handler(), c)
	}
	conc := NewServer()
	h := conc.Handler()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			post(h, c)
		}(c)
	}
	wg.Wait()
	if conc.Beacons() != clients*50 || !reflect.DeepEqual(seq.Counts(), conc.Counts()) {
		t.Errorf("concurrent counts diverged from sequential:\nseq  %+v\nconc %+v", seq.Counts(), conc.Counts())
	}
}
