// Package internet provides an in-process "internet": an http.RoundTripper
// that dispatches requests by host to registered handlers. The measurement
// device, its browser and every WebView share one Internet, so visits to
// synthetic top sites, the controlled measurement page, ad networks and
// tracker endpoints all resolve without real sockets — while unregistered
// hosts still answer (with an empty page) so that injected code contacting
// arbitrary endpoints is observable rather than an error.
package internet

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Internet is a host-routing RoundTripper.
type Internet struct {
	mu       sync.RWMutex
	hosts    map[string]http.Handler
	suffixes map[string]http.Handler // "*.example.com" registrations
	// CatchAll serves unregistered hosts; nil uses an empty 200 page.
	CatchAll http.Handler
}

// New returns an empty Internet.
func New() *Internet {
	return &Internet{
		hosts:    make(map[string]http.Handler),
		suffixes: make(map[string]http.Handler),
	}
}

// Register serves a host (exact match) with the handler. A leading "*."
// registers the handler for every subdomain.
func (in *Internet) Register(host string, h http.Handler) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if strings.HasPrefix(host, "*.") {
		in.suffixes[host[2:]] = h
		return
	}
	in.hosts[host] = h
}

// RegisterFunc is Register with a HandlerFunc.
func (in *Internet) RegisterFunc(host string, f http.HandlerFunc) {
	in.Register(host, f)
}

// Handler returns the handler serving a host, falling back to suffix
// registrations and the catch-all.
func (in *Internet) handler(host string) http.Handler {
	// Strip any port.
	if i := strings.LastIndexByte(host, ':'); i >= 0 && !strings.Contains(host[i:], "]") {
		host = host[:i]
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if h, ok := in.hosts[host]; ok {
		return h
	}
	for suffix, h := range in.suffixes {
		if host == suffix || strings.HasSuffix(host, "."+suffix) {
			return h
		}
	}
	if in.CatchAll != nil {
		return in.CatchAll
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, "<html><head><title>"+r.Host+"</title></head><body></body></html>")
	})
}

// RoundTrip implements http.RoundTripper by serving the request with the
// registered handler and answering with what it wrote. The response's
// status and headers are those of the handler's first write (or of its
// return, when it writes nothing); the body is read back from the
// writer, so a handler writing one prebuilt string with io.WriteString
// hands it over without a copy.
func (in *Internet) RoundTrip(req *http.Request) (*http.Response, error) {
	w := &responseWriter{}
	in.handler(req.URL.Host).ServeHTTP(w, req)
	w.commit(200)
	status := w.status
	return &http.Response{
		Status:        strconv.Itoa(status) + " " + http.StatusText(status),
		StatusCode:    status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.header,
		Body:          w,
		ContentLength: int64(len(w.str) + len(w.buf)),
		Request:       req,
	}, nil
}

// responseWriter is the http.ResponseWriter RoundTrip serves into, and
// then the response body reading back what the handler wrote.
type responseWriter struct {
	header http.Header // the response headers
	status int         // 0 until the first write
	// The body is str while the handler has written exactly one string,
	// and buf once it has written anything else.
	str string
	buf []byte
	off int // read offset
}

// Header returns the response headers until the first write fixes them;
// after it, changes go to a map nobody reads, as net/http's server drops
// them.
func (w *responseWriter) Header() http.Header {
	if w.status != 0 {
		return http.Header{}
	}
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

// WriteHeader fixes the status and the headers.
func (w *responseWriter) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	w.commit(code)
}

func (w *responseWriter) commit(code int) {
	if w.status != 0 {
		return
	}
	if w.header == nil {
		w.header = make(http.Header)
	}
	w.status = code
}

// sniff commits a 200 at the first write, sniffing the Content-Type from
// the first 512 bytes when the handler set none.
func sniff[T string | []byte](w *responseWriter, first T) {
	if w.status != 0 {
		return
	}
	h := w.Header()
	if _, ok := h["Content-Type"]; !ok && h.Get("Transfer-Encoding") == "" {
		h.Set("Content-Type", http.DetectContentType([]byte(first[:min(len(first), 512)])))
	}
	w.commit(200)
}

func (w *responseWriter) Write(p []byte) (int, error) {
	sniff(w, p)
	w.buf = append(append(w.buf, w.str...), p...)
	w.str = ""
	return len(p), nil
}

func (w *responseWriter) WriteString(s string) (int, error) {
	sniff(w, s)
	if w.str == "" && w.buf == nil {
		w.str = s
	} else {
		w.buf = append(append(w.buf, w.str...), s...)
		w.str = ""
	}
	return len(s), nil
}

func (w *responseWriter) Read(p []byte) (int, error) {
	var n int
	if w.buf != nil {
		n = copy(p, w.buf[w.off:])
	} else {
		n = copy(p, w.str[w.off:])
	}
	w.off += n
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

func (w *responseWriter) Close() error { return nil }

// Client returns an http.Client routed through this Internet.
func (in *Internet) Client() *http.Client {
	return &http.Client{Transport: in}
}
