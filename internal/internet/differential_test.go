package internet_test

import (
	"context"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crux"
	"repro/internal/internet"
	"repro/internal/measure"
)

// recorderTransport is the reference transport: each request is served
// into an httptest.ResponseRecorder, as the Internet did before it
// answered from its own writer.
type recorderTransport struct{ in *internet.Internet }

func (t recorderTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.in.HandlerFor(req.URL.Host).ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// studyInternet registers every handler the studies serve: the crawl's top
// sites, core's click redirectors and example.com page, and the
// controlled measurement page, wired as core.ProbeIABs wires it.
func studyInternet(t *testing.T) *internet.Internet {
	t.Helper()
	study := core.NewDynamicStudy()
	n := corpus.NamedApps[0] // Facebook, behind the lm.facebook.com redirector
	spec := &corpus.Spec{Package: n.Package, Title: n.Title, Downloads: n.Downloads, OnPlayStore: true, Dynamic: n.Dynamic}
	if _, err := study.ClassifyTopApps(context.Background(), []*corpus.Spec{spec}); err != nil {
		t.Fatal(err)
	}
	in := study.Net
	crux.RegisterAll(in, crux.TopSites(3))
	in.Register("measure.controlled.test", measure.NewServer().Handler())
	return in
}

// differentialCases are one request to every handler studyInternet
// registers, plus the default catch-all.
var differentialCases = []struct {
	method, url, body string
	status            int
}{
	{"GET", "https://news-01.example/", "", 200},
	{"GET", "https://news-01.example/section/a", "", 200},
	{"GET", "https://news-01.example/site.css", "", 200},
	{"GET", "https://news-01.example/site.js", "", 200},
	{"GET", "https://news-01.example/img-0.png", "", 200},
	{"GET", "https://never-registered.test/x", "", 200},
	{"GET", "https://lm.facebook.com/l.php?u=https%3A%2F%2Fexample.com%2F", "", 302},
	{"GET", "https://lm.facebook.com/l.php", "", 400},
	{"GET", "https://example.com/", "", 200},
	{"GET", "https://measure.controlled.test/", "", 200},
	{"GET", "https://measure.controlled.test/trace.js", "", 200},
	{"GET", "https://measure.controlled.test/collect?iface=Document&method=getElementById", "", 204},
	{"GET", "https://measure.controlled.test/collect", "", 400},
	{"POST", "https://measure.controlled.test/collect", `[{"iface":"Window","method":"fetch"}]`, 204},
	{"POST", "https://measure.controlled.test/collect", `[]]`, 400},
}

func newRequest(method, url, body string) *http.Request {
	var r io.Reader
	if body != "" {
		r = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, url, r)
	req.RequestURI = ""
	req.Header.Set(android.XRequestedWithHeader, "com.example.app")
	return req
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRoundTripMatchesRecorder serves every registered handler through
// the Internet and through an httptest.ResponseRecorder: status, header
// set and body must agree, and the body's length is the declared one.
func TestRoundTripMatchesRecorder(t *testing.T) {
	in := studyInternet(t)
	oracle := recorderTransport{in}
	for _, c := range differentialCases {
		got, err := in.RoundTrip(newRequest(c.method, c.url, c.body))
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.url, err)
		}
		want, _ := oracle.RoundTrip(newRequest(c.method, c.url, c.body))
		if got.StatusCode != c.status || got.StatusCode != want.StatusCode || got.Status != want.Status {
			t.Errorf("%s %s: status %q, recorder %q, want %d", c.method, c.url, got.Status, want.Status, c.status)
		}
		if !reflect.DeepEqual(got.Header, want.Header) {
			t.Errorf("%s %s: header %v, recorder %v", c.method, c.url, got.Header, want.Header)
		}
		gotBody, wantBody := readAll(t, got), readAll(t, want)
		if gotBody != wantBody {
			t.Errorf("%s %s: body %q, recorder %q", c.method, c.url, gotBody, wantBody)
		}
		if got.ContentLength != int64(len(gotBody)) {
			t.Errorf("%s %s: ContentLength %d for a %d-byte body", c.method, c.url, got.ContentLength, len(gotBody))
		}
	}
	if got, _ := in.RoundTrip(newRequest("GET", "https://lm.facebook.com/l.php?u=https%3A%2F%2Fexample.com%2F", "")); got.Header.Get("Location") != "https://example.com/" {
		t.Errorf("redirector Location = %q", got.Header.Get("Location"))
	}
}

// TestClientMatchesRecorder drives the same requests through an
// http.Client with a cookie jar on each transport, so redirects are
// followed: the final URL, status and body must agree.
func TestClientMatchesRecorder(t *testing.T) {
	in := studyInternet(t)
	client := func(rt http.RoundTripper) *http.Client {
		jar, _ := cookiejar.New(nil)
		return &http.Client{Jar: jar, Transport: rt}
	}
	got, want := client(in), client(recorderTransport{in})
	for _, c := range differentialCases {
		g, err := got.Do(newRequest(c.method, c.url, c.body))
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.url, err)
		}
		w, err := want.Do(newRequest(c.method, c.url, c.body))
		if err != nil {
			t.Fatalf("%s %s via recorder: %v", c.method, c.url, err)
		}
		if g.Request.URL.String() != w.Request.URL.String() || g.StatusCode != w.StatusCode {
			t.Errorf("%s %s: ended at %s (%d), recorder at %s (%d)", c.method, c.url,
				g.Request.URL, g.StatusCode, w.Request.URL, w.StatusCode)
		}
		if gb, wb := readAll(t, g), readAll(t, w); gb != wb {
			t.Errorf("%s %s: body %q, recorder %q", c.method, c.url, gb, wb)
		}
	}
}

// TestHeaderChangesAfterFirstWriteDropped pins the writer's commit point:
// the status and headers are those of the first write.
func TestHeaderChangesAfterFirstWriteDropped(t *testing.T) {
	in := internet.New()
	in.RegisterFunc("late.example", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "<p>first</p>")
		w.Header().Set("X-Late", "1")
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "<p>second</p>")
	})
	for _, rt := range []http.RoundTripper{in, recorderTransport{in}} {
		resp, _ := rt.RoundTrip(newRequest("GET", "https://late.example/", ""))
		body := readAll(t, resp)
		if resp.StatusCode != 200 || resp.Header.Get("X-Late") != "" || body != "<p>first</p><p>second</p>" ||
			resp.Header.Get("Content-Type") != "text/html; charset=utf-8" {
			t.Errorf("%T: %d %v %q", rt, resp.StatusCode, resp.Header, body)
		}
	}
}
