// Package browsersim loads and renders web pages for the measurement
// harness: it fetches a page over HTTP, parses it into a DOM, loads its
// subresources (logging every request to a netlog), and executes its
// scripts — and any injected scripts — in a jsvm with document/window
// host bindings. Every Web-API call made by script is recorded, which is
// how the controlled test page "overrides all methods of all Web APIs and
// submits the intercepted requests back to our server" (§3.2.2, Table 9).
package browsersim

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/textproto"
	"net/url"
	"strings"
	"sync"

	"repro/internal/dom"
	"repro/internal/jsvm"
	"repro/internal/netlog"
)

// APICall is one recorded Web-API invocation (Table 9 rows).
type APICall struct {
	Interface string // e.g. "Document", "Element"
	Method    string // e.g. "getElementsByTagName"
}

// Page is a loaded page with its live DOM and script VM.
type Page struct {
	URL     string
	Doc     *dom.Document
	VM      *jsvm.VM
	Console []string

	loader *Loader
	// Computed once per page load and shared by every request the page
	// makes: the parsed page URL (nil when it does not parse), the
	// request headers (canonical keys, values shared read-only), the
	// loader's headers as the netlog records them, and each reference
	// resolved so far.
	base      *url.URL
	reqHeader http.Header
	logHeader map[string]string
	targets   map[string]target

	mu       sync.Mutex
	apiCalls []APICall
	// initiator labels requests triggered by currently-running script.
	initiator string
	nodeWraps map[*dom.Node]*jsvm.Object
	protos    pageProtos
}

// APICalls returns the recorded Web-API invocations in call order.
func (p *Page) APICalls() []APICall {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]APICall(nil), p.apiCalls...)
}

func (p *Page) recordAPI(iface, method string) {
	p.mu.Lock()
	p.apiCalls = append(p.apiCalls, APICall{iface, method})
	p.mu.Unlock()
}

// Loader fetches and renders pages within one browsing context.
type Loader struct {
	// Client issues all requests; tests inject httptest clients.
	Client *http.Client
	// Log receives one event per request; nil disables logging.
	Log *netlog.Log
	// Context names the browsing context in the netlog (one WebView
	// instance, one CT session).
	Context string
	// Headers are added to every request (WebViews stamp
	// X-Requested-With with the app package).
	Headers map[string]string
	// UserAgent is sent when non-empty.
	UserAgent string
	// MaxSubresources bounds fetches per page (0 = 64).
	MaxSubresources int
	// ExecuteScripts controls whether page <script> elements run.
	ExecuteScripts bool
	// Globals are host objects pre-seeded into every page's VM before any
	// page script runs (WebView JS bridges are visible to page code from
	// the first script, as on Android).
	Globals map[string]*jsvm.Object
}

func (l *Loader) client() *http.Client {
	if l.Client != nil {
		return l.Client
	}
	return http.DefaultClient
}

// LoadWithScripts is Load with the script-execution flag overridden per
// visit (WebViews flip it with their JavaScriptEnabled setting).
func (l *Loader) LoadWithScripts(ctx context.Context, pageURL string, scripts bool) (*Page, error) {
	return l.load(ctx, pageURL, scripts)
}

// newPage starts a page at pageURL: it parses the URL and takes the
// loader's headers once for every request the page will make. The error
// is the URL's parse error; the page then has no base.
func (l *Loader) newPage(pageURL string) (*Page, error) {
	p := &Page{
		URL:       pageURL,
		loader:    l,
		initiator: "page",
		targets:   make(map[string]target),
		reqHeader: make(http.Header, len(l.Headers)+1),
	}
	var err error
	p.base, err = url.Parse(pageURL)
	for k, v := range l.Headers {
		p.reqHeader[textproto.CanonicalMIMEHeaderKey(k)] = []string{v}
	}
	if l.UserAgent != "" {
		p.reqHeader["User-Agent"] = []string{l.UserAgent}
	}
	if l.Log != nil {
		p.logHeader = make(map[string]string, len(l.Headers))
		for k, v := range l.Headers {
			p.logHeader[k] = v
		}
	}
	return p, err
}

// render gives the page its document and a VM over the page realm with
// the loader's globals.
func (p *Page) render(html string) {
	p.Doc = dom.Parse(html)
	p.Doc.URL = p.URL
	p.VM = pageRealm.New(p)
	p.nodeWraps = make(map[*dom.Node]*jsvm.Object)
	for name, obj := range p.loader.Globals {
		p.VM.Global.Set(name, jsvm.ObjectValue(obj))
	}
}

// NewLocalPage renders in-memory HTML as if it had been fetched from
// baseURL (the loadData / loadDataWithBaseURL path). No network fetch is
// made for the document itself; subresources and scripts still resolve
// against baseURL.
func NewLocalPage(l *Loader, baseURL, html string, scripts bool) *Page {
	page, _ := l.newPage(baseURL)
	page.render(html)
	doc := page.Doc
	if scripts {
		for _, script := range doc.Scripts() {
			if script.Attr("src") != "" {
				continue // external scripts of local data need a real base
			}
			page.runPageScript(script.Text())
		}
	}
	return page
}

// runPageScript compiles code through the shared program cache and runs it
// best-effort. Identical scripts (SDK snippets, per-visit injections) parse
// once per process instead of once per page.
func (p *Page) runPageScript(code string) {
	prog, err := jsvm.CompileCached(code)
	if err == nil {
		_, err = p.VM.RunProgram(prog)
	}
	if err != nil {
		p.Console = append(p.Console, "script error: "+err.Error())
	}
}

// Load fetches pageURL, parses it, fetches subresources, and (when
// ExecuteScripts) runs page scripts. The returned Page stays live:
// injected scripts can keep mutating it via Execute.
func (l *Loader) Load(ctx context.Context, pageURL string) (*Page, error) {
	return l.load(ctx, pageURL, l.ExecuteScripts)
}

// load is Load with the script-execution flag given.
func (l *Loader) load(ctx context.Context, pageURL string, scripts bool) (*Page, error) {
	page, err := l.newPage(pageURL)
	if err != nil {
		return nil, fmt.Errorf("browsersim: load %s: %w", pageURL, err)
	}
	// The page itself is requested whatever its scheme; only references
	// must resolve to http(s).
	body, status, err := page.fetch(ctx, target{url: pageURL, u: page.base}, "page")
	if err != nil {
		return nil, fmt.Errorf("browsersim: load %s: %w", pageURL, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("browsersim: load %s: status %d", pageURL, status)
	}
	page.render(body)
	doc := page.Doc

	// Subresources.
	max := l.MaxSubresources
	if max == 0 {
		max = 64
	}
	for i, sub := range doc.SubresourceURLs() {
		if i >= max {
			break
		}
		t := page.resolve(sub)
		if t.u == nil {
			continue
		}
		// Best-effort: subresource failures don't fail the page. The body
		// is drained through a pooled buffer — only the netlog entry
		// matters, so no per-fetch allocation is kept.
		page.fetchDiscard(ctx, t, "subresource")
	}

	if scripts {
		for _, script := range doc.Scripts() {
			src := script.Attr("src")
			var code string
			if src != "" {
				// A src that does not resolve to http(s) (data:,
				// javascript:) is neither requested nor run.
				t := page.resolve(src)
				if t.u == nil {
					continue
				}
				body, status, err := page.fetch(ctx, t, "subresource")
				if err != nil || status != http.StatusOK {
					continue
				}
				code = body
			} else {
				code = script.Text()
			}
			// Page scripts are best-effort: real pages contain JS beyond
			// the interpreter subset, and a page script error must not
			// abort the visit.
			page.runPageScript(code)
		}
	}
	return page, nil
}

// Execute runs injected JavaScript against the live page, tagging any
// network requests it triggers as injection-initiated. It returns the
// script's completion value rendered as a string (the evaluateJavascript
// callback contract).
func (p *Page) Execute(code string) (string, error) {
	p.mu.Lock()
	prev := p.initiator
	p.initiator = "injection"
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.initiator = prev
		p.mu.Unlock()
	}()
	prog, err := jsvm.CompileCached(code)
	if err != nil {
		return "", err
	}
	v, err := p.VM.RunProgram(prog)
	if err != nil {
		return "", err
	}
	return v.StringValue(), nil
}

// ExecuteProgram is Execute for a pre-parsed program: callers probing many
// pages with the same injected script compile it once and skip even the
// cache lookup on the hot path.
func (p *Page) ExecuteProgram(prog *jsvm.Program) (string, error) {
	p.mu.Lock()
	prev := p.initiator
	p.initiator = "injection"
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.initiator = prev
		p.mu.Unlock()
	}()
	v, err := p.VM.RunProgram(prog)
	if err != nil {
		return "", err
	}
	return v.StringValue(), nil
}

// FetchFromScript issues a network request on behalf of running script
// (XMLHttpRequest/fetch/beacon host bindings call this).
func (p *Page) FetchFromScript(rawURL string) (string, int) {
	t := p.resolve(rawURL)
	if t.u == nil {
		return "", 0
	}
	p.mu.Lock()
	init := p.initiator
	p.mu.Unlock()
	body, status, err := p.fetch(context.Background(), t, init)
	if err != nil {
		return "", 0
	}
	return body, status
}

// target is a reference resolved against the page URL: the absolute URL
// the netlog records and the parsed form requests are built from. u is
// nil when the reference does not resolve to an http(s) URL.
type target struct {
	url string
	u   *url.URL
}

// resolve resolves a reference once per page; a page naming the same
// image a dozen times parses it once.
func (p *Page) resolve(ref string) target {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.targets[ref]
	if !ok {
		t = resolveRef(p.base, ref)
		p.targets[ref] = t
	}
	return t
}

// copyBufs pools the scratch buffers response bodies copy through, so a
// crawl visiting thousands of pages reuses a handful of 32 KiB slabs
// instead of allocating one per fetch.
var copyBufs = sync.Pool{
	New: func() any { b := make([]byte, 32<<10); return &b },
}

// maxBody bounds how much of a response body is read.
const maxBody = 8 << 20

// do issues the GET for t, which must have resolved, with the page's
// headers; a request that fails is logged with status 0.
func (p *Page) do(ctx context.Context, t target, initiator string) (*http.Response, error) {
	u := t.u
	if strings.HasSuffix(u.Host, ":") { // http.NewRequest drops an empty port
		c := *u
		c.Host = strings.TrimSuffix(u.Host, ":")
		u = &c
	}
	h := make(http.Header, len(p.reqHeader))
	for k, v := range p.reqHeader {
		h[k] = v
	}
	req := &http.Request{
		Method:     http.MethodGet,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     h,
		Host:       u.Host,
	}
	resp, err := p.loader.client().Do(req.WithContext(ctx))
	if err != nil {
		p.logEvent(t.url, 0, initiator)
	}
	return resp, err
}

// fetchDiscard issues a request whose body is drained and thrown away:
// the netlog event is the point, not the bytes. Errors are deliberately
// swallowed (subresources are best-effort); the event is still logged.
func (p *Page) fetchDiscard(ctx context.Context, t target, initiator string) {
	resp, err := p.do(ctx, t, initiator)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	buf := copyBufs.Get().(*[]byte)
	lr := io.LimitReader(resp.Body, maxBody)
	for {
		if _, err := lr.Read(*buf); err != nil {
			break
		}
	}
	copyBufs.Put(buf)
	p.logEvent(t.url, resp.StatusCode, initiator)
}

// fetch requests t and returns its body, read once through a pooled slab
// into a string presized from the response's length.
func (p *Page) fetch(ctx context.Context, t target, initiator string) (string, int, error) {
	resp, err := p.do(ctx, t, initiator)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var body strings.Builder
	if n := resp.ContentLength; n > 0 {
		body.Grow(int(min(n, maxBody)))
	}
	buf := copyBufs.Get().(*[]byte)
	_, err = io.CopyBuffer(&body, io.LimitReader(resp.Body, maxBody), *buf)
	copyBufs.Put(buf)
	p.logEvent(t.url, resp.StatusCode, initiator)
	if err != nil {
		return "", resp.StatusCode, err
	}
	return body.String(), resp.StatusCode, nil
}

func (p *Page) logEvent(rawURL string, status int, initiator string) {
	l := p.loader
	if l.Log == nil {
		return
	}
	l.Log.Record(netlog.Event{
		Context:   l.Context,
		URL:       rawURL,
		Method:    http.MethodGet,
		Status:    status,
		Header:    p.logHeader,
		Initiator: initiator,
	})
}

func resolveRef(base *url.URL, ref string) target {
	if strings.HasPrefix(ref, "//") && base != nil {
		ref = base.Scheme + ":" + ref
	}
	u, err := url.Parse(ref)
	if err != nil {
		return target{}
	}
	if base != nil {
		u = base.ResolveReference(u)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return target{}
	}
	return target{url: u.String(), u: u}
}
