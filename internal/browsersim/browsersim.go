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

	loader   *Loader
	mu       sync.Mutex
	apiCalls []APICall
	// initiator labels requests triggered by currently-running script.
	initiator string
	nodeWraps map[*dom.Node]*jsvm.Object
	// The page's interface prototypes (installBindings).
	elementProto, htmlCollectionProto, nodeListProto, xhrProto *jsvm.Object
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
	shallow := *l
	shallow.ExecuteScripts = scripts
	return shallow.Load(ctx, pageURL)
}

// NewLocalPage renders in-memory HTML as if it had been fetched from
// baseURL (the loadData / loadDataWithBaseURL path). No network fetch is
// made for the document itself; subresources and scripts still resolve
// against baseURL.
func NewLocalPage(l *Loader, baseURL, html string, scripts bool) *Page {
	doc := dom.Parse(html)
	doc.URL = baseURL
	page := &Page{
		URL:       baseURL,
		Doc:       doc,
		VM:        jsvm.New(),
		loader:    l,
		initiator: "page",
		nodeWraps: make(map[*dom.Node]*jsvm.Object),
	}
	page.installBindings()
	for name, obj := range l.Globals {
		page.VM.Global.Set(name, jsvm.ObjectValue(obj))
	}
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
	body, status, err := l.fetch(ctx, pageURL, "page")
	if err != nil {
		return nil, fmt.Errorf("browsersim: load %s: %w", pageURL, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("browsersim: load %s: status %d", pageURL, status)
	}
	doc := dom.Parse(string(body))
	doc.URL = pageURL
	page := &Page{
		URL:       pageURL,
		Doc:       doc,
		VM:        jsvm.New(),
		loader:    l,
		initiator: "page",
		nodeWraps: make(map[*dom.Node]*jsvm.Object),
	}
	page.installBindings()
	for name, obj := range l.Globals {
		page.VM.Global.Set(name, jsvm.ObjectValue(obj))
	}

	// Subresources.
	max := l.MaxSubresources
	if max == 0 {
		max = 64
	}
	base, _ := url.Parse(pageURL)
	for i, sub := range doc.SubresourceURLs() {
		if i >= max {
			break
		}
		abs := resolveRef(base, sub)
		if abs == "" {
			continue
		}
		// Best-effort: subresource failures don't fail the page. The body
		// is drained through a pooled buffer — only the netlog entry
		// matters, so no per-fetch allocation is kept.
		l.fetchDiscard(ctx, abs, "subresource")
	}

	if l.ExecuteScripts {
		for _, script := range doc.Scripts() {
			src := script.Attr("src")
			var code string
			if src != "" {
				abs := resolveRef(base, src)
				body, status, err := l.fetch(ctx, abs, "subresource")
				if err != nil || status != http.StatusOK {
					continue
				}
				code = string(body)
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
	base, _ := url.Parse(p.URL)
	abs := resolveRef(base, rawURL)
	if abs == "" {
		return "", 0
	}
	p.mu.Lock()
	init := p.initiator
	p.mu.Unlock()
	body, status, err := p.loader.fetch(context.Background(), abs, init)
	if err != nil {
		return "", 0
	}
	return string(body), status
}

// copyBufs pools the scratch buffers subresource drains copy through, so a
// crawl visiting thousands of pages reuses a handful of 32 KiB slabs
// instead of allocating one per fetch.
var copyBufs = sync.Pool{
	New: func() any { b := make([]byte, 32<<10); return &b },
}

// fetchDiscard issues a request whose body is drained and thrown away:
// the netlog event is the point, not the bytes. Errors are deliberately
// swallowed (subresources are best-effort); the event is still logged.
func (l *Loader) fetchDiscard(ctx context.Context, rawURL, initiator string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return
	}
	for k, v := range l.Headers {
		req.Header.Set(k, v)
	}
	if l.UserAgent != "" {
		req.Header.Set("User-Agent", l.UserAgent)
	}
	resp, err := l.client().Do(req)
	if err != nil {
		l.logEvent(rawURL, 0, initiator)
		return
	}
	defer resp.Body.Close()
	buf := copyBufs.Get().(*[]byte)
	lr := io.LimitReader(resp.Body, 8<<20)
	for {
		if _, err := lr.Read(*buf); err != nil {
			break
		}
	}
	copyBufs.Put(buf)
	l.logEvent(rawURL, resp.StatusCode, initiator)
}

func (l *Loader) fetch(ctx context.Context, rawURL, initiator string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, 0, err
	}
	for k, v := range l.Headers {
		req.Header.Set(k, v)
	}
	if l.UserAgent != "" {
		req.Header.Set("User-Agent", l.UserAgent)
	}
	resp, err := l.client().Do(req)
	if err != nil {
		l.logEvent(rawURL, 0, initiator)
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	l.logEvent(rawURL, resp.StatusCode, initiator)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return body, resp.StatusCode, nil
}

func (l *Loader) logEvent(rawURL string, status int, initiator string) {
	if l.Log == nil {
		return
	}
	hdr := make(map[string]string, len(l.Headers))
	for k, v := range l.Headers {
		hdr[k] = v
	}
	l.Log.Record(netlog.Event{
		Context:   l.Context,
		URL:       rawURL,
		Method:    http.MethodGet,
		Status:    status,
		Header:    hdr,
		Initiator: initiator,
	})
}

func resolveRef(base *url.URL, ref string) string {
	if strings.HasPrefix(ref, "//") && base != nil {
		ref = base.Scheme + ":" + ref
	}
	u, err := url.Parse(ref)
	if err != nil {
		return ""
	}
	if base != nil {
		u = base.ResolveReference(u)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return ""
	}
	return u.String()
}
