// Package playstore simulates the Google Play Store metadata service the
// paper scrapes (step 1 of Figure 1): install counts, category and
// last-update time per app. It exposes an HTTP server over a generated
// corpus and a typed client, so the pipeline performs real network fetches
// with real not-found handling (4.05M of the 6.5M AndroZoo apps, 62.3%, are
// not on the Play Store).
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

	"repro/internal/corpus"
	"repro/internal/retry"
)

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

// Handler returns the HTTP handler: GET /v1/apps/{package}.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/apps/", s.handleApp)
	return mux
}

func (s *Server) handleApp(w http.ResponseWriter, r *http.Request) {
	pkg := strings.TrimPrefix(r.URL.Path, "/v1/apps/")
	if pkg == "" {
		http.Error(w, "missing package", http.StatusBadRequest)
		return
	}
	spec := s.src.ByPackage(pkg)
	if spec == nil || !spec.OnPlayStore {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(Metadata{
		Package:     spec.Package,
		Title:       spec.Title,
		Category:    spec.PlayCategory,
		Downloads:   spec.Downloads,
		LastUpdated: spec.LastUpdated,
	}); err != nil {
		// Connection-level failure; nothing more to do.
		return
	}
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

// WithRetry wraps every Metadata call in the given retry policy (nil
// disables retrying) and returns the client. Not-found responses are
// classified permanent — an app's absence is an answer, not a failure —
// so they are never retried.
func (c *Client) WithRetry(p *retry.Policy) *Client {
	c.retry = p
	return c
}

// Metadata fetches one app's listing. Returns ErrNotFound for apps absent
// from the store. Server errors and truncated responses are retryable;
// with a WithRetry policy they are re-attempted with backoff.
func (c *Client) Metadata(ctx context.Context, pkg string) (Metadata, error) {
	return retry.Do(ctx, c.retry, func(ctx context.Context) (Metadata, error) {
		return c.metadata(ctx, pkg)
	})
}

func (c *Client) metadata(ctx context.Context, pkg string) (Metadata, error) {
	var md Metadata
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/apps/"+pkg, nil)
	if err != nil {
		return md, retry.Permanent(fmt.Errorf("playstore: %w", err))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return md, retry.Transient(fmt.Errorf("playstore: %w", err))
	}
	defer drainClose(resp.Body)
	switch {
	case resp.StatusCode == http.StatusOK:
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&md); err != nil {
			// A decode failure on a 200 is a truncated or garbled body —
			// the transfer failed, not the request.
			return md, retry.Transient(fmt.Errorf("playstore: decode %s: %w", pkg, err))
		}
		return md, nil
	case resp.StatusCode == http.StatusNotFound:
		return md, retry.Permanent(fmt.Errorf("%w: %s", ErrNotFound, pkg))
	case resp.StatusCode >= 500:
		return md, retry.Transient(fmt.Errorf("playstore: %s: unexpected status %s", pkg, resp.Status))
	default:
		return md, retry.Permanent(fmt.Errorf("playstore: %s: unexpected status %s", pkg, resp.Status))
	}
}

// drainClose reads what is left of a response body, up to 4 KB, before
// closing it. The transport returns a connection to its idle pool only
// once the body has been read to the end; closing a 404's "not found"
// unread discards the connection, and most lookups are not-founds. A
// failed drain costs only that connection, so its error is not reported.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 4096))
	body.Close()
}
