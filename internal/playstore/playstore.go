// Package playstore simulates the Google Play Store metadata service the
// paper scrapes (step 1 of Figure 1): install counts, category and
// last-update time per app. It exposes an HTTP server over a generated
// corpus and a typed client, so the pipeline performs real network fetches
// with real not-found handling (4.05M of the 6.5M AndroZoo apps, 62.3%, are
// not on the Play Store).
//
// One request looks up to MaxBatch apps up at once, the way Google Play's
// own client asks for many apps' details in one call: the answer holds one
// entry per requested name, the app's listing or null when the store does
// not list it. The client fails closed. It puts nothing but package names
// into a request path, and it fetches an answer again when it does not
// hold exactly one entry per name, each null or the listing of the name
// at its place, so a damaged answer never gives one app another's listing.
package playstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/android"
	"repro/internal/corpus"
	"repro/internal/retry"
)

// MaxBatch is the most package names one lookup may carry. The pipeline
// feeds its metadata workers chunks of this size, so each chunk is one
// request.
const MaxBatch = 64

// maxBody bounds the answer the client reads: MaxBatch listings take
// about 16 KB.
const maxBody = 1 << 20

// Metadata is the Play Store listing data the pipeline filters on.
type Metadata struct {
	Package     string    `json:"package"`
	Title       string    `json:"title"`
	Category    string    `json:"category"`
	Downloads   int64     `json:"downloads"`
	LastUpdated time.Time `json:"lastUpdated"`
}

// ErrNotFound reports that an app is not listed on the store.
var ErrNotFound = errors.New("playstore: app not found")

// Server serves store metadata for a corpus.
type Server struct {
	src corpus.Source
}

// NewServer serves the materialized corpus.
func NewServer(c *corpus.Corpus) *Server {
	return NewServerFrom(c)
}

// NewServerFrom serves any corpus source, including the bounded-memory
// *corpus.Snapshot for full paper-scale listings.
func NewServerFrom(src corpus.Source) *Server {
	return &Server{src: src}
}

// Handler returns the HTTP handler, one route:
//
//	GET /v1/apps/{pkgs}   1 to MaxBatch comma-separated package names
//
// The answer is a JSON array with one entry per name, in request order:
// the app's Metadata, or null when the store does not list it. A list
// with an empty element, a name that is not a package name or more than
// MaxBatch names is a 400.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/apps/{pkgs}", s.handleApps)
	return mux
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	pkgs, err := splitNames(r.PathValue("pkgs"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	listed := make([]Metadata, len(pkgs))
	answer := make([]*Metadata, len(pkgs))
	for i, pkg := range pkgs {
		spec := s.src.ByPackage(pkg)
		if spec == nil || !spec.OnPlayStore {
			continue
		}
		listed[i] = Metadata{
			Package:     spec.Package,
			Title:       spec.Title,
			Category:    spec.PlayCategory,
			Downloads:   spec.Downloads,
			LastUpdated: spec.LastUpdated,
		}
		answer[i] = &listed[i]
	}
	w.Header().Set("Content-Type", "application/json")
	// An encoding failure is a connection-level one; nothing more to do.
	json.NewEncoder(w).Encode(answer)
}

// splitNames splits a {pkgs} path segment into its package names,
// refusing more than MaxBatch names, an empty element and a name that is
// not a package name.
func splitNames(seg string) ([]string, error) {
	if strings.Count(seg, ",") >= MaxBatch {
		return nil, fmt.Errorf("more than %d names", MaxBatch)
	}
	pkgs := strings.Split(seg, ",")
	for _, pkg := range pkgs {
		if err := checkName(pkg); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

func checkName(pkg string) error {
	if pkg == "" {
		return errors.New("empty package name")
	}
	if !android.IsPackageName(pkg) {
		return fmt.Errorf("%.64q is not a package name", pkg)
	}
	return nil
}

// Client fetches metadata from a Server (or anything with its API).
type Client struct {
	base  string
	hc    *http.Client
	retry *retry.Policy
}

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// WithRetry wraps every request in the given retry policy (nil disables
// retrying) and returns the client. An app's absence is an answer, not a
// failure, so a lookup that finds none of its apps is neither retried nor
// counted as failed.
func (c *Client) WithRetry(p *retry.Policy) *Client {
	c.retry = p
	return c
}

// Metadata fetches one app's listing: a Lookup of one name. Returns
// ErrNotFound for an app absent from the store.
func (c *Client) Metadata(ctx context.Context, pkg string) (Metadata, error) {
	mds, err := c.Lookup(ctx, []string{pkg})
	if err != nil {
		return Metadata{}, err
	}
	if mds[0] == nil {
		return Metadata{}, ErrNotFound
	}
	return *mds[0], nil
}

// Lookup fetches the listings of 1 to MaxBatch apps in one request. Entry
// i of the answer is pkgs[i]'s listing, or nil when the store does not
// list it. A batch of another size, or a name that is not a package name,
// is refused with a permanent error before any request. Server errors and
// damaged answers are retryable; with a WithRetry policy they are
// re-attempted with backoff.
func (c *Client) Lookup(ctx context.Context, pkgs []string) ([]*Metadata, error) {
	if len(pkgs) == 0 || len(pkgs) > MaxBatch {
		return nil, retry.Permanent(fmt.Errorf("playstore: a lookup carries 1 to %d names, not %d", MaxBatch, len(pkgs)))
	}
	for _, pkg := range pkgs {
		if err := checkName(pkg); err != nil {
			return nil, retry.Permanent(fmt.Errorf("playstore: %w", err))
		}
	}
	return retry.Do(ctx, c.retry, func(ctx context.Context) ([]*Metadata, error) {
		return c.lookup(ctx, pkgs)
	})
}

func (c *Client) lookup(ctx context.Context, pkgs []string) ([]*Metadata, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/apps/"+strings.Join(pkgs, ","), nil)
	if err != nil {
		return nil, retry.Permanent(fmt.Errorf("playstore: %w", err))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, retry.Transient(fmt.Errorf("playstore: %w", err))
	}
	defer drainClose(resp.Body)
	switch {
	case resp.StatusCode == http.StatusOK:
		mds, err := decodeAnswer(resp.Body, pkgs)
		if err != nil {
			// A damaged answer means the transfer failed, not the request.
			return nil, retry.Transient(fmt.Errorf("playstore: lookup of %d from %s: %w", len(pkgs), pkgs[0], err))
		}
		return mds, nil
	case resp.StatusCode >= 500:
		return nil, retry.Transient(fmt.Errorf("playstore: lookup of %d from %s: unexpected status %s", len(pkgs), pkgs[0], resp.Status))
	default:
		return nil, retry.Permanent(fmt.Errorf("playstore: lookup of %d from %s: unexpected status %s", len(pkgs), pkgs[0], resp.Status))
	}
}

// decodeAnswer reads the answer to a lookup of pkgs: at most maxBody
// bytes of JSON, an array with one entry per name, each null or the
// listing of the name at its place.
func decodeAnswer(body io.Reader, pkgs []string) ([]*Metadata, error) {
	b, err := io.ReadAll(io.LimitReader(body, maxBody+1))
	if err != nil {
		return nil, err
	}
	if len(b) > maxBody {
		return nil, fmt.Errorf("answer over %d bytes", maxBody)
	}
	var mds []*Metadata
	if err := json.Unmarshal(b, &mds); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if len(mds) != len(pkgs) {
		return nil, fmt.Errorf("%d entries for %d names", len(mds), len(pkgs))
	}
	for i, md := range mds {
		if md != nil && md.Package != pkgs[i] {
			return nil, fmt.Errorf("entry %d is the listing of %.64q, not of %s", i, md.Package, pkgs[i])
		}
	}
	return mds, nil
}

// drainClose reads what is left of a response body, up to 4 KB, before
// closing it. The transport returns a connection to its idle pool only
// once the body has been read to the end; closing an error answer unread
// discards the connection. A failed drain costs only that connection, so
// its error is not reported.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 4096))
	body.Close()
}
