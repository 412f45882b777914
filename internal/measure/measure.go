// Package measure implements the paper's controlled measurement
// infrastructure (§3.2.2): an HTTP server hosting the HTML5 test page
// (after Bracco et al. [46]) instrumented with a Trace.js-style script that
// overrides Web-API methods and reports every interception back to the
// server, where it is recorded per app. WebView visits are attributed by
// the X-Requested-With header the WebView stamps on every request.
package measure

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"repro/internal/android"
	"repro/internal/browsersim"
)

// MaxCollectBody caps the size of one POST /collect batch. Larger bodies
// are rejected with 413 instead of being buffered.
const MaxCollectBody = 1 << 20

// ErrEmptyTrace rejects a beacon carrying neither interface nor method —
// the malformed shape the collector used to drop silently.
var ErrEmptyTrace = errors.New("measure: trace has neither interface nor method")

// Trace is one intercepted Web-API call, attributed to the app whose
// WebView made the page visit.
type Trace struct {
	App       string `json:"app"`
	Interface string `json:"interface"`
	Method    string `json:"method"`
}

// Server hosts the controlled page and collects traces. It folds beacons
// into per-(app, interface, method) counts as they arrive, so resident
// memory is O(distinct triples) however many beacons pass through.
// Counting is commutative, so concurrent posts yield the same counts as
// sequential ones.
type Server struct {
	mu      sync.Mutex
	counts  map[Trace]int64
	beacons int64
}

// NewServer returns an empty collection server.
func NewServer() *Server { return &Server{counts: make(map[Trace]int64)} }

// Handler returns the HTTP surface:
//
//	GET /            the instrumented HTML5 test page
//	GET /trace.js    the Web-API interception script
//	GET /collect     one interception report (query: iface, method)
//	POST /collect    batched reports (JSON array of Trace)
//
// /collect is synchronous: a beacon is counted before its 204, so a
// caller may read ForApp as soon as its upload returns. A malformed batch
// or an empty beacon answers 400, a body over MaxCollectBody 413, and any
// other method 405; none of them records anything.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, TestPageHTML)
	})
	mux.HandleFunc("GET /trace.js", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		io.WriteString(w, TraceJS)
	})
	// The mux answers 405 to the methods neither pattern names.
	mux.HandleFunc("GET /collect", s.collect)
	mux.HandleFunc("POST /collect", s.collect)
	return mux
}

func (s *Server) collect(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodHead { // the GET pattern matches HEAD too
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	batch, err := DecodeCollect(w, r)
	if err != nil {
		WriteCollectError(w, err)
		return
	}
	if err := s.Accept(r.Header.Get(android.XRequestedWithHeader), batch); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// DecodeCollect extracts the beacon batch from a /collect request — the
// one shared path for both the GET (query-parameter, single-beacon) and
// POST (JSON-array, body-capped) channels. A POST body must be exactly one
// JSON array, with nothing but whitespace after it. Bodies beyond
// MaxCollectBody fail with a *http.MaxBytesError, anything else malformed
// (null, another value, junk trailing the array) with a plain error;
// WriteCollectError maps both.
func DecodeCollect(w http.ResponseWriter, r *http.Request) ([]Trace, error) {
	if r.Method == http.MethodGet {
		return []Trace{{
			Interface: r.URL.Query().Get("iface"),
			Method:    r.URL.Query().Get("method"),
		}}, nil
	}
	var batch []Trace
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxCollectBody))
	if err := dec.Decode(&batch); err != nil {
		return nil, fmt.Errorf("measure: bad batch: %w", err)
	}
	// Decode leaves a slice nil only for a JSON null; "[]" decodes empty.
	if batch == nil {
		return nil, errors.New("measure: bad batch: not a JSON array")
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after array")
		}
		return nil, fmt.Errorf("measure: bad batch: %w", err)
	}
	return batch, nil
}

// WriteCollectError answers a DecodeCollect failure: 413 when the body
// blew the cap, 400 for everything else. Never silent.
func WriteCollectError(w http.ResponseWriter, err error) {
	var maxBytes *http.MaxBytesError
	if errors.As(err, &maxBytes) {
		http.Error(w, "batch too large", http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// Accept records a batch attributed to app (beacons carrying their own App
// keep it). A beacon with neither interface nor method fails the whole
// batch with ErrEmptyTrace and records nothing — the caller answers 400
// instead of silently dropping. Accept is safe for concurrent use.
func (s *Server) Accept(app string, batch []Trace) error {
	for _, tr := range batch {
		if tr.Interface == "" && tr.Method == "" {
			return ErrEmptyTrace
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, tr := range batch {
		if tr.App == "" {
			tr.App = app
		}
		s.counts[tr]++
		s.beacons++
	}
	return nil
}

// Beacons returns the total beacons collected.
func (s *Server) Beacons() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.beacons
}

// Counts returns a copy of the per-(app, interface, method) beacon counts.
func (s *Server) Counts() map[Trace]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Trace]int64, len(s.counts))
	for tr, n := range s.counts {
		out[tr] = n
	}
	return out
}

// ForApp returns the distinct (interface, method) pairs recorded for one
// app, sorted — the rows of Table 9.
func (s *Server) ForApp(app string) []Trace {
	var out []Trace
	for tr := range s.Counts() {
		if tr.App == app {
			out = append(out, Trace{Interface: tr.Interface, Method: tr.Method})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Interface != out[j].Interface {
			return out[i].Interface < out[j].Interface
		}
		return out[i].Method < out[j].Method
	})
	return out
}

// ReportAPICalls uploads the Element-level API calls the page runtime
// recorded natively (the parts Trace.js cannot wrap because element
// wrappers are created per node) as one batch. Any answer but 204 is an
// error.
func ReportAPICalls(ctx context.Context, client *http.Client, collectURL, app string, calls []browsersim.APICall) error {
	if len(calls) == 0 {
		return nil
	}
	batch := make([]Trace, 0, len(calls))
	for _, c := range calls {
		batch = append(batch, Trace{App: app, Interface: c.Interface, Method: c.Method})
	}
	body, err := json.Marshal(batch)
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, collectURL, newReader(body))
	if err != nil {
		return fmt.Errorf("measure: report %s: %w", app, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(android.XRequestedWithHeader, app)
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("measure: report %s: %w", app, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("measure: report %s: http status %d", app, resp.StatusCode)
	}
	return nil
}

func newReader(b []byte) io.Reader { return &sliceReader{b: b} }

type sliceReader struct {
	b []byte
	i int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}
