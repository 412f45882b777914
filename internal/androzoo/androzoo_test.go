package androzoo

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apk"
	"repro/internal/corpus"
	"repro/internal/retry"
)

func testSetup(t *testing.T) (*Client, *corpus.Corpus) {
	return testSetupAt(t, 2000)
}

func testSetupAt(t *testing.T, scale int) (*Client, *corpus.Corpus) {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(c).Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client()), c
}

func TestListReturnsWholeSnapshot(t *testing.T) {
	client, c := testSetup(t)
	pkgs, err := client.List(context.Background())
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(pkgs) != len(c.Apps) {
		t.Errorf("snapshot = %d packages, want %d", len(pkgs), len(c.Apps))
	}
	if pkgs[0] != c.Apps[0].Package {
		t.Errorf("first package = %q, want %q", pkgs[0], c.Apps[0].Package)
	}
}

// TestListRefusesListingCutShort serves the listing through a transport
// that cuts the body after a whole line, the cut no line check can see:
// the digest trailer must refuse it, retryably, and a retry over an
// intact body must return the whole snapshot.
func TestListRefusesListingCutShort(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(c).Handler())
	t.Cleanup(srv.Close)
	var cuts atomic.Int32
	cut := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := srv.Client().Transport.RoundTrip(r)
		if err != nil || cuts.Add(1) > 1 {
			return resp, err
		}
		body, err := io.ReadAll(resp.Body) // to its end, so the trailer arrives
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		body = body[:bytes.LastIndexByte(body[:len(body)/2], '\n')+1]
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return resp, nil
	})
	client := NewClient(srv.URL, &http.Client{Transport: cut})
	pkgs, err := client.List(context.Background())
	if err == nil || !retry.IsRetryable(err) || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("List over a cut listing = %d packages, %v; want a retryable digest mismatch", len(pkgs), err)
	}
	pkgs, err = client.WithRetry(&retry.Policy{MaxAttempts: 2}).List(context.Background())
	if err != nil || len(pkgs) != len(c.Apps) {
		t.Fatalf("List after a retry = %d packages, %v; want %d", len(pkgs), err, len(c.Apps))
	}
}

func TestDownloadParsesAsAPK(t *testing.T) {
	client, c := testSetup(t)
	var target *corpus.Spec
	for _, s := range c.Filtered() {
		if !s.Broken {
			target = s
			break
		}
	}
	img, err := client.Download(context.Background(), target.Package)
	if err != nil {
		t.Fatalf("Download: %v", err)
	}
	a, err := apk.Open(img)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if a.Package() != target.Package {
		t.Errorf("package = %q", a.Package())
	}
}

func TestDownloadDeterministic(t *testing.T) {
	client, c := testSetup(t)
	pkg := c.Filtered()[0].Package
	a, err := client.Download(context.Background(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Download(context.Background(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("repeated downloads differ")
	}
}

func TestDownloadUnknown(t *testing.T) {
	client, _ := testSetup(t)
	if _, err := client.Download(context.Background(), "com.unknown.app"); err == nil {
		t.Error("unknown package did not fail")
	}
}

// TestErrorAnswerKeepsConnection downloads an unknown package, then a
// real one: the 404's body is drained, so its keep-alive connection goes
// back to the idle pool and the second download reuses it.
func TestErrorAnswerKeepsConnection(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(NewServer(c).Handler())
	var conns atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	if _, err := client.Download(context.Background(), "com.unknown.app"); err == nil {
		t.Fatal("unknown package did not fail")
	}
	if _, err := client.Download(context.Background(), c.Filtered()[0].Package); err != nil {
		t.Fatalf("Download: %v", err)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("a 404 and a download dialed %d connections, want 1", n)
	}
}

func TestDownloadBrokenAPKStillServed(t *testing.T) {
	// Broken APKs are planted only beyond the dynamic top-1K prefix, so
	// only scales of 146 and below plant any; seed 1 plants 2 here.
	client, c := testSetupAt(t, 146)
	n := 0
	for _, s := range c.Filtered() {
		if !s.Broken {
			continue
		}
		n++
		img, err := client.Download(context.Background(), s.Package)
		if err != nil {
			t.Fatalf("Download %s: %v", s.Package, err)
		}
		if _, err := apk.Open(img); !errors.Is(err, apk.ErrBroken) {
			t.Errorf("broken APK %s parsed: %v", s.Package, err)
		}
	}
	if n == 0 {
		t.Fatal("corpus plants no broken APK at this scale")
	}
}

func TestListContextCancel(t *testing.T) {
	client, _ := testSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.List(ctx); err == nil {
		t.Error("cancelled context did not fail")
	}
}

// --- server handler paths (404 / 500 / digest / truncation) --------------

func TestHandleAPKSetsDigestHeader(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(c).Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/apk/" + c.Apps[0].Package)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	if got, want := resp.Header.Get(DigestHeader), hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s = %q, want payload digest %q", DigestHeader, got, want)
	}
	if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
		t.Errorf("Content-Length = %q for %d body bytes", cl, len(body))
	}
}

func TestHandleAPKUnknownPackage404(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 5000})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(c).Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/apk/com.not.a.real.app")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %s, want 404", resp.Status)
	}
}

func TestHandleAPKBuildFailure500(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 5000})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(c)
	s.build = func(*corpus.Spec) ([]byte, error) { return nil, errors.New("synthetic build explosion") }
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/apk/" + c.Apps[0].Package)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %s, want 500", resp.Status)
	}
	if resp.Header.Get(DigestHeader) != "" {
		t.Error("error response carries a payload digest header")
	}
	// The client must refuse the error body rather than hand it on as an
	// APK image; a 5xx is retryable.
	client := NewClient(srv.URL, srv.Client())
	_, derr := client.Download(context.Background(), c.Apps[0].Package)
	if derr == nil {
		t.Fatal("Download of a 500 succeeded")
	}
	if !retry.IsRetryable(derr) {
		t.Errorf("5xx error %v is not retryable", derr)
	}
}

// flakyAPKHandler serves a wrong or truncated payload for the first n
// requests per path, then behaves.
type flakyAPKHandler struct {
	mu       sync.Mutex
	failures map[string]int
	n        int
	payload  []byte
	mode     string // "truncate", "corrupt", "nodigest" or "status"
}

func (h *flakyAPKHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.failures[r.URL.Path]++
	misbehave := h.failures[r.URL.Path] <= h.n
	h.mu.Unlock()
	sum := sha256.Sum256(h.payload)
	if misbehave && h.mode == "status" {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
		return
	}
	if !misbehave || h.mode != "nodigest" {
		w.Header().Set(DigestHeader, hex.EncodeToString(sum[:]))
	}
	w.Header().Set("Content-Length", fmt.Sprint(len(h.payload)))
	switch {
	case misbehave && h.mode == "truncate":
		w.(http.Flusher).Flush()
		w.Write(h.payload[:len(h.payload)/2])
		panic(http.ErrAbortHandler) // cut the connection mid-body
	case misbehave && h.mode == "corrupt":
		bad := append([]byte(nil), h.payload...)
		bad[0] ^= 0xff
		w.Write(bad)
	default:
		w.Write(h.payload)
	}
}

func flakyServer(t *testing.T, mode string, n int) (*Client, *retry.Metrics) {
	t.Helper()
	h := &flakyAPKHandler{failures: make(map[string]int), n: n, payload: bytes.Repeat([]byte("apk!"), 1024), mode: mode}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	m := &retry.Metrics{}
	p := &retry.Policy{
		MaxAttempts: 4, Seed: 1, Metrics: m,
		Sleep: func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
	return NewClient(srv.URL, srv.Client()).WithRetry(p), m
}

func TestDownloadTruncationDetectedAndRetried(t *testing.T) {
	client, m := flakyServer(t, "truncate", 2)
	img, err := client.Download(context.Background(), "com.truncated.app")
	if err != nil {
		t.Fatalf("Download did not recover from truncation: %v", err)
	}
	if len(img) != 4096 {
		t.Errorf("recovered image is %d bytes, want 4096", len(img))
	}
	if m.Retries.Load() != 2 {
		t.Errorf("retries = %d, want 2", m.Retries.Load())
	}
}

func TestDownloadDigestMismatchDetectedAndRetried(t *testing.T) {
	client, m := flakyServer(t, "corrupt", 1)
	img, err := client.Download(context.Background(), "com.corrupt.app")
	if err != nil {
		t.Fatalf("Download did not recover from corruption: %v", err)
	}
	if img[0] != 'a' {
		t.Error("recovered image still corrupt")
	}
	if m.Retries.Load() != 1 {
		t.Errorf("retries = %d, want 1", m.Retries.Load())
	}
}

func TestDownloadServerErrorRetried(t *testing.T) {
	client, m := flakyServer(t, "status", 3)
	if _, err := client.Download(context.Background(), "com.unsteady.app"); err != nil {
		t.Fatalf("Download did not outlast 3 consecutive 503s: %v", err)
	}
	if m.Retries.Load() != 3 {
		t.Errorf("retries = %d, want 3", m.Retries.Load())
	}
}

func TestDownloadTruncationWithoutRetryIsRetryableError(t *testing.T) {
	h := &flakyAPKHandler{failures: make(map[string]int), n: 1000, payload: bytes.Repeat([]byte("apk!"), 1024), mode: "corrupt"}
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client()) // no retry policy
	_, err := client.Download(context.Background(), "com.x")
	if err == nil {
		t.Fatal("corrupted download succeeded")
	}
	if !strings.Contains(err.Error(), "digest mismatch") {
		t.Errorf("err = %v, want a digest mismatch", err)
	}
	if !retry.IsRetryable(err) {
		t.Error("digest mismatch not classified retryable")
	}
}

// --- failing closed -------------------------------------------------------

// TestDownloadRefusesPathEscape: "../snapshot" would resolve to the
// listing, which a client that skipped verification once returned as an
// APK image. A name that is not a package name is refused before any
// request is made, and the refusal is permanent.
func TestDownloadRefusesPathEscape(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 5000})
	if err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int64
	h := NewServer(c).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())
	for _, pkg := range []string{"../snapshot", "..", "", "com.x/../../snapshot", "%2e%2e/snapshot",
		"com.x?y=1", "com.x#frag", "com..x", ".com.x", "com.x.", "com.1x", "com._x", "com.x y", "com.café"} {
		img, err := client.Download(context.Background(), pkg)
		if err == nil {
			t.Errorf("Download(%q) returned %d bytes and no error", pkg, len(img))
			continue
		}
		if retry.IsRetryable(err) {
			t.Errorf("Download(%q): refusal %v is retryable", pkg, err)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("refused names made %d requests, want 0", n)
	}
}

func TestDownloadWithoutDigestRefused(t *testing.T) {
	h := &flakyAPKHandler{failures: make(map[string]int), n: 1000, payload: bytes.Repeat([]byte("apk!"), 1024), mode: "nodigest"}
	srv := httptest.NewServer(h)
	defer srv.Close()
	_, err := NewClient(srv.URL, srv.Client()).Download(context.Background(), "com.x")
	if err == nil {
		t.Fatal("a download without a payload digest succeeded")
	}
	if !strings.Contains(err.Error(), DigestHeader) || !retry.IsRetryable(err) {
		t.Errorf("err = %v, want a retryable error naming %s", err, DigestHeader)
	}
}

// listingClient answers /snapshot with body and its true digest trailer,
// and every other request with a 404, counting those in *apkRequests.
func listingClient(body []byte) (client *Client, apkRequests *int) {
	sum := sha256.Sum256(body)
	return listingClientTrailer(body, http.Header{DigestHeader: {hex.EncodeToString(sum[:])}})
}

// listingClientTrailer is listingClient with the /snapshot trailer given.
func listingClientTrailer(body []byte, trailer http.Header) (client *Client, apkRequests *int) {
	apkRequests = new(int)
	client = NewClient("http://androzoo.test", &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path == "/snapshot" {
			return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(body)),
				Trailer: trailer, Request: r}, nil
		}
		*apkRequests++
		return &http.Response{StatusCode: http.StatusNotFound, Body: http.NoBody, Request: r}, nil
	})})
	return client, apkRequests
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestListRefusesLineThatIsNotAPackageName(t *testing.T) {
	client, _ := listingClient([]byte("com.facebook.katana\n  kik.android \r\n\na\nA_1.b_\n"))
	pkgs, err := client.List(context.Background())
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if want := []string{"com.facebook.katana", "kik.android", "a", "A_1.b_"}; !reflect.DeepEqual(pkgs, want) {
		t.Errorf("List = %q, want %q", pkgs, want)
	}
	for _, bad := range []string{"../snapshot", "com.x/y", "com..x", "com.1x", "com.x\xffy", "com.a com.b"} {
		client, _ := listingClient([]byte("com.facebook.katana\n" + bad + "\nkik.android\n"))
		pkgs, err := client.List(context.Background())
		if err == nil {
			t.Errorf("a listing with %q returned %q and no error", bad, pkgs)
			continue
		}
		if !retry.IsRetryable(err) {
			t.Errorf("listing with %q: %v is not retryable", bad, err)
		}
	}
}
