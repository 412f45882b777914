package playstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/retry"
)

func testCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testServer(t *testing.T) (*httptest.Server, *corpus.Corpus) {
	t.Helper()
	c := testCorpus(t)
	srv := httptest.NewServer(NewServer(c).Handler())
	t.Cleanup(srv.Close)
	return srv, c
}

// listingOf is the listing the store gives spec, nil when it lists none.
func listingOf(spec *corpus.Spec) *Metadata {
	if spec == nil || !spec.OnPlayStore {
		return nil
	}
	return &Metadata{
		Package: spec.Package, Title: spec.Title, Category: spec.PlayCategory,
		Downloads: spec.Downloads, LastUpdated: spec.LastUpdated,
	}
}

// chunk returns MaxBatch packages spread evenly across the snapshot,
// where listed and absent apps mix as in the paper.
func chunk(t *testing.T, c *corpus.Corpus) []string {
	t.Helper()
	var pkgs []string
	listed := 0
	for i := 0; i < MaxBatch; i++ {
		s := c.Apps[i*len(c.Apps)/MaxBatch]
		pkgs = append(pkgs, s.Package)
		if s.OnPlayStore {
			listed++
		}
	}
	if listed < 2 || listed == len(pkgs) {
		t.Fatalf("%d of %d packages listed: the chunk must mix listed and absent apps", listed, len(pkgs))
	}
	return pkgs
}

func TestMetadataFound(t *testing.T) {
	srv, c := testServer(t)
	client := NewClient(srv.URL, srv.Client())
	want := c.Filtered()[0]
	md, err := client.Metadata(context.Background(), want.Package)
	if err != nil {
		t.Fatalf("Metadata: %v", err)
	}
	if md.Package != want.Package || md.Downloads != want.Downloads ||
		md.Category != want.PlayCategory || !md.LastUpdated.Equal(want.LastUpdated) {
		t.Errorf("metadata = %+v, want spec %+v", md, want)
	}
}

func TestMetadataNotFound(t *testing.T) {
	srv, _ := testServer(t)
	client := NewClient(srv.URL, srv.Client())
	_, err := client.Metadata(context.Background(), "com.never.existed")
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestOffPlayAppsAreNotFound(t *testing.T) {
	srv, c := testServer(t)
	client := NewClient(srv.URL, srv.Client())
	var offPlay string
	for _, s := range c.Apps {
		if !s.OnPlayStore {
			offPlay = s.Package
			break
		}
	}
	if offPlay == "" {
		t.Skip("corpus has no off-play apps at this scale")
	}
	if _, err := client.Metadata(context.Background(), offPlay); !errors.Is(err, ErrNotFound) {
		t.Errorf("off-play app err = %v, want ErrNotFound", err)
	}
}

func TestMetadataContextCancel(t *testing.T) {
	srv, c := testServer(t)
	client := NewClient(srv.URL, srv.Client())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Metadata(ctx, c.Apps[0].Package); err == nil {
		t.Error("cancelled context did not fail")
	}
}

func TestMetadataBadBase(t *testing.T) {
	client := NewClient("http://127.0.0.1:1", nil)
	if _, err := client.Metadata(context.Background(), "x"); err == nil {
		t.Error("unreachable server did not fail")
	}
}

// TestLookupAnswersInRequestOrder looks a chunk of the snapshot up in one
// request: entry i is the i-th name's listing, or nil for an absent app.
// A name given twice is answered twice.
func TestLookupAnswersInRequestOrder(t *testing.T) {
	srv, c := testServer(t)
	client := NewClient(srv.URL, srv.Client())
	pkgs := chunk(t, c)
	for _, batch := range [][]string{pkgs, {pkgs[0], "com.never.existed", pkgs[0]}} {
		got, err := client.Lookup(context.Background(), batch)
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		want := make([]*Metadata, len(batch))
		for i, pkg := range batch {
			want[i] = listingOf(c.AppByPackage(pkg))
		}
		if len(got) != len(want) {
			t.Fatalf("%d entries for %d names", len(got), len(want))
		}
		for i := range want {
			if (got[i] == nil) != (want[i] == nil) || got[i] != nil && !equalListing(*got[i], *want[i]) {
				t.Errorf("entry %d (%s) = %+v, want %+v", i, batch[i], got[i], want[i])
			}
		}
	}
}

// equalListing compares two listings, their update times as instants.
func equalListing(a, b Metadata) bool {
	t := a.LastUpdated.Equal(b.LastUpdated)
	a.LastUpdated, b.LastUpdated = time.Time{}, time.Time{}
	return t && a == b
}

// TestServerRefusesMalformedLists sends the server lists no client would
// make: each is a 4xx, and a full batch is a 200.
func TestServerRefusesMalformedLists(t *testing.T) {
	srv, c := testServer(t)
	names := func(n int) string {
		var pkgs []string
		for _, s := range c.Apps[:n] {
			pkgs = append(pkgs, s.Package)
		}
		return strings.Join(pkgs, ",")
	}
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/apps/" + names(MaxBatch), http.StatusOK},
		{"/v1/apps/" + names(MaxBatch+1), http.StatusBadRequest},
		{"/v1/apps/com.a,,com.b", http.StatusBadRequest},
		{"/v1/apps/com.a,", http.StatusBadRequest},
		{"/v1/apps/,com.a", http.StatusBadRequest},
		{"/v1/apps/com.1a", http.StatusBadRequest},
		{"/v1/apps/com.a%20b", http.StatusBadRequest},
		{"/v1/apps/com.a%2Fb", http.StatusBadRequest},
		{"/v1/apps/com.a/b", http.StatusNotFound},
		{"/v1/apps/", http.StatusNotFound},
	} {
		resp, err := srv.Client().Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %.80s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestLookupRefusesBeforeRequest: a batch of no names or of more than
// MaxBatch, and a name that is not a package name, never reach the
// server, and retrying them would not help.
func TestLookupRefusesBeforeRequest(t *testing.T) {
	c := testCorpus(t)
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		NewServer(c).Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())
	var tooMany []string
	for _, s := range c.Apps[:MaxBatch+1] {
		tooMany = append(tooMany, s.Package)
	}
	for _, batch := range [][]string{
		nil, tooMany, {"com.a", "../snapshot"}, {"com.a,com.b"}, {""}, {"com.x y"},
	} {
		mds, err := client.Lookup(context.Background(), batch)
		if err == nil || retry.IsRetryable(err) {
			t.Errorf("Lookup(%.60q) = %v, %v; want a permanent error", batch, mds, err)
		}
	}
	if _, err := client.Metadata(context.Background(), "com.a/b"); err == nil || errors.Is(err, ErrNotFound) {
		t.Errorf("Metadata of a non-name = %v, want a refusal", err)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("refused lookups made %d requests", n)
	}
}

// TestLookupsShareOneConnection runs sequential lookups spread evenly
// across the snapshot, where absent apps outnumber listed ones as in the
// paper (62.3% of AndroZoo is not on the store), one name at a time and a
// whole batch at a time. Every answer is read to the end, so one
// keep-alive connection serves them all.
func TestLookupsShareOneConnection(t *testing.T) {
	c := testCorpus(t)
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
	var found, absent int
	var batch []string
	for i := 0; i < len(c.Apps); i += len(c.Apps) / 50 {
		app := c.Apps[i]
		batch = append(batch, app.Package)
		_, err := client.Metadata(context.Background(), app.Package)
		switch {
		case err == nil:
			found++
		case errors.Is(err, ErrNotFound):
			absent++
		default:
			t.Fatalf("Metadata %s: %v", app.Package, err)
		}
	}
	if found == 0 || absent == 0 {
		t.Fatalf("%d found, %d absent: the lookups must mix both", found, absent)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.Lookup(context.Background(), batch); err != nil {
			t.Fatalf("Lookup: %v", err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("%d sequential requests (%d not found) dialed %d connections, want 1", found+absent+3, absent, n)
	}
}

// flakyStore answers the first n requests per path with damage(w, r),
// then proxies to real.
type flakyStore struct {
	mu       sync.Mutex
	requests map[string]int
	n        int
	damage   func(w http.ResponseWriter, r *http.Request)
	real     http.Handler
}

func newFlakyStore(c *corpus.Corpus, n int, damage func(w http.ResponseWriter, r *http.Request)) *flakyStore {
	return &flakyStore{requests: make(map[string]int), n: n, damage: damage, real: NewServer(c).Handler()}
}

func (h *flakyStore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.requests[r.URL.Path]++
	misbehave := h.requests[r.URL.Path] <= h.n
	h.mu.Unlock()
	if misbehave {
		h.damage(w, r)
		return
	}
	h.real.ServeHTTP(w, r)
}

func (h *flakyStore) total() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, k := range h.requests {
		n += k
	}
	return n
}

func overloaded(w http.ResponseWriter, _ *http.Request) {
	http.Error(w, "overloaded", http.StatusServiceUnavailable)
}

// rewrite serves the real answer with its entries passed through edit.
func rewrite(real http.Handler, edit func([]json.RawMessage) []json.RawMessage) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		var entries []json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(edit(entries))
	}
}

// listedAt returns the indexes of the non-null entries.
func listedAt(entries []json.RawMessage) []int {
	var at []int
	for i, e := range entries {
		if string(e) != "null" {
			at = append(at, i)
		}
	}
	return at
}

func testPolicy(attempts int, m *retry.Metrics) *retry.Policy {
	return &retry.Policy{
		MaxAttempts: attempts, Seed: 1, Metrics: m,
		Sleep: func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
}

// TestLookupRetriesDamagedAnswers serves each kind of bad answer once per
// request: the client refuses it as a retryable error, so with retries the
// second attempt serves the true listings, and never another app's.
func TestLookupRetriesDamagedAnswers(t *testing.T) {
	c := testCorpus(t)
	pkgs := chunk(t, c)
	real := NewServer(c).Handler()
	want := make([]*Metadata, len(pkgs))
	for i, pkg := range pkgs {
		want[i] = listingOf(c.AppByPackage(pkg))
	}
	for _, tc := range []struct {
		name   string
		damage func(http.ResponseWriter, *http.Request)
	}{
		{"server error", overloaded},
		{"short array", rewrite(real, func(e []json.RawMessage) []json.RawMessage { return e[:len(e)-1] })},
		{"long array", rewrite(real, func(e []json.RawMessage) []json.RawMessage { return append(e, e[0]) })},
		{"swapped entries", rewrite(real, func(e []json.RawMessage) []json.RawMessage {
			at := listedAt(e)
			e[at[0]], e[at[1]] = e[at[1]], e[at[0]]
			return e
		})},
		{"listing moved to an absent app", rewrite(real, func(e []json.RawMessage) []json.RawMessage {
			at := listedAt(e)
			for i := range e {
				if string(e[i]) == "null" {
					e[i], e[at[0]] = e[at[0]], e[i]
					break
				}
			}
			return e
		})},
		{"entry names another package", rewrite(real, func(e []json.RawMessage) []json.RawMessage {
			at := listedAt(e)
			e[at[0]] = json.RawMessage(strings.Replace(string(e[at[0]]), `"package":"`, `"package":"x`, 1))
			return e
		})},
		{"not an array", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, `{"package":"com.a"}`) }},
		{"null", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "null") }},
		{"truncated", func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			real.ServeHTTP(rec, r)
			w.Write(rec.Body.Bytes()[:rec.Body.Len()/2])
		}},
		{"data after the array", func(w http.ResponseWriter, r *http.Request) {
			real.ServeHTTP(w, r)
			fmt.Fprint(w, "]")
		}},
		{"over 1 MiB", func(w http.ResponseWriter, r *http.Request) {
			real.ServeHTTP(w, r)
			fmt.Fprint(w, strings.Repeat(" ", maxBody))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newFlakyStore(c, 1, tc.damage)
			srv := httptest.NewServer(h)
			defer srv.Close()

			_, err := NewClient(srv.URL, srv.Client()).Lookup(context.Background(), pkgs)
			if err == nil || !retry.IsRetryable(err) {
				t.Fatalf("damaged answer: err = %v, want a retryable error", err)
			}

			h = newFlakyStore(c, 1, tc.damage)
			srv2 := httptest.NewServer(h)
			defer srv2.Close()
			m := &retry.Metrics{}
			got, err := NewClient(srv2.URL, srv2.Client()).WithRetry(testPolicy(3, m)).Lookup(context.Background(), pkgs)
			if err != nil {
				t.Fatalf("Lookup did not outlast one damaged answer: %v", err)
			}
			for i := range want {
				if (got[i] == nil) != (want[i] == nil) || got[i] != nil && !equalListing(*got[i], *want[i]) {
					t.Fatalf("entry %d (%s) = %+v, want %+v", i, pkgs[i], got[i], want[i])
				}
			}
			if m.Attempts.Load() != 2 || m.Retries.Load() != 1 || m.Failures.Load() != 0 || h.total() != 2 {
				t.Errorf("attempts %d, retries %d, failures %d, requests %d; want 2, 1, 0, 2",
					m.Attempts.Load(), m.Retries.Load(), m.Failures.Load(), h.total())
			}
		})
	}
}

func TestMetadataServerErrorRetried(t *testing.T) {
	c := testCorpus(t)
	srv := httptest.NewServer(newFlakyStore(c, 2, overloaded))
	defer srv.Close()

	var onPlay string
	for _, app := range c.Apps {
		if app.OnPlayStore {
			onPlay = app.Package
			break
		}
	}
	m := &retry.Metrics{}
	client := NewClient(srv.URL, srv.Client()).WithRetry(testPolicy(4, m))
	md, err := client.Metadata(context.Background(), onPlay)
	if err != nil {
		t.Fatalf("Metadata did not outlast 2 consecutive 503s: %v", err)
	}
	if md.Package != onPlay {
		t.Errorf("md.Package = %q, want %q", md.Package, onPlay)
	}
	if m.Retries.Load() != 2 {
		t.Errorf("retries = %d, want 2", m.Retries.Load())
	}
}

// TestMetadataNotFoundIsNotRetried: an app's absence is an answer, so its
// lookup is one attempt and no failure.
func TestMetadataNotFoundIsNotRetried(t *testing.T) {
	srv, _ := testServer(t)
	m := &retry.Metrics{}
	client := NewClient(srv.URL, srv.Client()).WithRetry(testPolicy(5, m))
	_, err := client.Metadata(context.Background(), "com.definitely.absent")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if m.Attempts.Load() != 1 || m.Retries.Load() != 0 || m.Failures.Load() != 0 {
		t.Errorf("attempts %d, retries %d, failures %d; want 1, 0, 0",
			m.Attempts.Load(), m.Retries.Load(), m.Failures.Load())
	}
}
