// Package androzoo simulates the AndroZoo APK repository [39]: a snapshot
// listing of every known Play Store app and per-app APK download. APK
// images are synthesised on demand from the corpus specs (deterministically,
// so repeated downloads are byte-identical) and served with their digest,
// the way AndroZoo indexes APKs by hash.
//
// The client fails closed. It verifies every download against the
// server-sent payload digest and Content-Length, and the streamed listing
// against the digest trailer that follows it, surfacing truncated,
// corrupted or unverifiable bodies as retryable errors; it refuses a
// listing line that is not a package name, and never puts such a name into
// a request path. It can wrap all its requests in a retry policy
// (WithRetry) with backoff.
package androzoo

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/android"
	"repro/internal/corpus"
	"repro/internal/retry"
)

// DigestHeader carries the hex SHA-256 of the response payload, the
// repository's equivalent of AndroZoo's per-APK hash index. Clients use
// it to detect corrupted downloads without trusting the APK's own
// internal digest entry. The streamed listing sends it as a trailer,
// after the body it covers.
const DigestHeader = "X-Payload-Sha256"

// Server serves a corpus as an APK repository.
type Server struct {
	src corpus.Source
	// build synthesises one APK image; a test hook (defaults to
	// corpus.BuildAPK) so handler failure paths are coverable.
	build func(*corpus.Spec) ([]byte, error)
}

// NewServer serves the materialized corpus.
func NewServer(c *corpus.Corpus) *Server {
	return NewServerFrom(c)
}

// NewServerFrom serves any corpus source — a materialized *corpus.Corpus
// or a bounded-memory *corpus.Snapshot, which lets a single process serve
// the full paper-scale repository (6.5M snapshot entries) without holding
// it in memory.
func NewServerFrom(src corpus.Source) *Server {
	return &Server{src: src, build: corpus.BuildAPK}
}

// Handler returns the repository API:
//
//	GET /snapshot          newline-separated package list (digest in the
//	                       X-Payload-Sha256 trailer)
//	GET /apk/{package}     the APK image (digest in X-Payload-Sha256)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /apk/", s.handleAPK)
	return mux
}

// handleSnapshot streams the listing, so a bounded-memory source serves
// paper-scale listings; the digest of what was sent follows the body as a
// trailer.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Trailer", DigestHeader)
	h := sha256.New()
	bw := bufio.NewWriter(io.MultiWriter(w, h))
	s.src.Each(func(app *corpus.Spec) error {
		bw.WriteString(app.Package)
		bw.WriteByte('\n')
		return nil
	})
	bw.Flush()
	w.Header().Set(DigestHeader, hex.EncodeToString(h.Sum(nil)))
}

func (s *Server) handleAPK(w http.ResponseWriter, r *http.Request) {
	pkg := strings.TrimPrefix(r.URL.Path, "/apk/")
	spec := s.src.ByPackage(pkg)
	if spec == nil {
		http.Error(w, "unknown apk", http.StatusNotFound)
		return
	}
	img, err := s.build(spec)
	if err != nil {
		// Nothing has been written yet, so the status is authoritative and
		// no digest header is set — the client must not mistake the error
		// body for an APK.
		http.Error(w, "build failed", http.StatusInternalServerError)
		return
	}
	sum := sha256.Sum256(img)
	w.Header().Set("Content-Type", "application/vnd.android.package-archive")
	w.Header().Set(DigestHeader, hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Length", fmt.Sprint(len(img)))
	w.Write(img)
}

// Client talks to a repository server.
type Client struct {
	base  string
	hc    *http.Client
	retry *retry.Policy
}

// NewClient returns a client for the repository at baseURL.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 60 * time.Second}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// WithRetry wraps every List and Download call in the given retry policy
// (nil disables retrying) and returns the client.
func (c *Client) WithRetry(p *retry.Policy) *Client {
	c.retry = p
	return c
}

// List streams the snapshot package list. A listing cut short or
// damaged on the wire, or one without its digest trailer, is a retryable
// error.
func (c *Client) List(ctx context.Context) ([]string, error) {
	return retry.Do(ctx, c.retry, c.list)
}

func (c *Client) list(ctx context.Context) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/snapshot", nil)
	if err != nil {
		return nil, retry.Permanent(fmt.Errorf("androzoo: %w", err))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Connection-level failures (refused, reset, timeout) are the
		// textbook transient class.
		return nil, retry.Transient(fmt.Errorf("androzoo: %w", err))
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, classifyStatus(resp.StatusCode, fmt.Errorf("androzoo: snapshot: unexpected status %s", resp.Status))
	}
	var pkgs []string
	h := sha256.New()
	sc := bufio.NewScanner(io.TeeReader(resp.Body, h))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !android.IsPackageName(line) {
			// A damaged line, most likely: the listing is fetched again.
			return nil, retry.Transient(fmt.Errorf("androzoo: snapshot: %.64q is not a package name", line))
		}
		pkgs = append(pkgs, line)
	}
	if err := sc.Err(); err != nil {
		return nil, retry.Transient(fmt.Errorf("androzoo: snapshot: %w", err))
	}
	// A cut that ends on a line break leaves whole package names, so only
	// the digest tells a short listing from the full one. The trailer is
	// readable now that the body has been read to its end.
	want := resp.Trailer.Get(DigestHeader)
	if want == "" {
		return nil, retry.Transient(fmt.Errorf("androzoo: snapshot: no %s trailer to verify the listing against", DigestHeader))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		return nil, retry.Transient(fmt.Errorf("androzoo: snapshot: listing digest mismatch: got %s, want %s", got, want))
	}
	return pkgs, nil
}

// Download fetches one APK image, verifying it against the server-sent
// Content-Length and payload digest: a truncated or corrupted body, or one
// without a digest, is a retryable error, never a silently corrupt image.
// A pkg that is not a package name is refused without a request.
func (c *Client) Download(ctx context.Context, pkg string) ([]byte, error) {
	if !android.IsPackageName(pkg) {
		return nil, retry.Permanent(fmt.Errorf("androzoo: %.64q is not a package name", pkg))
	}
	return retry.Do(ctx, c.retry, func(ctx context.Context) ([]byte, error) {
		return c.download(ctx, pkg)
	})
}

func (c *Client) download(ctx context.Context, pkg string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/apk/"+pkg, nil)
	if err != nil {
		return nil, retry.Permanent(fmt.Errorf("androzoo: %w", err))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, retry.Transient(fmt.Errorf("androzoo: %s: %w", pkg, err))
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, classifyStatus(resp.StatusCode, fmt.Errorf("androzoo: %s: unexpected status %s", pkg, resp.Status))
	}
	img, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, retry.Transient(fmt.Errorf("androzoo: %s: truncated body: %w", pkg, err))
	}
	if cl := resp.ContentLength; cl >= 0 && int64(len(img)) != cl {
		return nil, retry.Transient(fmt.Errorf("androzoo: %s: truncated body: got %d of %d bytes", pkg, len(img), cl))
	}
	want := resp.Header.Get(DigestHeader)
	if want == "" {
		return nil, retry.Transient(fmt.Errorf("androzoo: %s: no %s header to verify the payload against", pkg, DigestHeader))
	}
	sum := sha256.Sum256(img)
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, retry.Transient(fmt.Errorf("androzoo: %s: payload digest mismatch: got %s, want %s", pkg, got, want))
	}
	return img, nil
}

// drainClose reads what is left of a response body, up to 4 KB, before
// closing it, so an error answer returns its keep-alive connection to the
// transport's idle pool instead of discarding it. A larger remainder, such
// as the rest of a rejected APK image, is not worth reading, and a failed
// drain is not worth reporting: either costs one new connection.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 4096))
	body.Close()
}

// classifyStatus marks 5xx responses transient (the server may recover)
// and everything else permanent (the request itself is wrong).
func classifyStatus(code int, err error) error {
	if code >= 500 {
		return retry.Transient(err)
	}
	return retry.Permanent(err)
}
