package browsersim

import (
	"strings"

	"repro/internal/dom"
	"repro/internal/jsvm"
)

// pageRealm is the host API every page's VM starts from: the standard
// library plus document, window, console, navigator and the network and
// probe primitives below. Each binding is built the first time a script
// needs it (see jsvm.Realm), finding its page through the VM's Host slot.
// Every DOM method records an APICall, exactly as the controlled page's
// Trace.js wraps the Web APIs (§3.2.2); building a binding records
// nothing.
var pageRealm = jsvm.NewRealm(jsvm.Builtins(),
	pageBinding("console", (*Page).consoleObject),
	pageBinding("document", (*Page).documentObject),
	pageBinding("location", (*Page).locationObject),
	// window IS the global object, as in browsers: window.x = 1 creates a
	// global, and bare globals are readable as window properties.
	pageBinding("window", func(p *Page) *jsvm.Object { return p.VM.Global }),
	pageBinding("addEventListener", func(p *Page) *jsvm.Object {
		return jsvm.NewHostFunc("addEventListener", func(c jsvm.Call) (jsvm.Value, error) {
			p.recordAPI("Window", "addEventListener")
			return jsvm.Undefined(), nil
		})
	}),
	// Timers run synchronously: the harness has no event loop and the
	// measured scripts only use them to defer work.
	pageBinding("setTimeout", func(*Page) *jsvm.Object {
		return jsvm.NewHostFunc("setTimeout", func(c jsvm.Call) (jsvm.Value, error) {
			if fn := c.Arg(0); fn.Object() != nil && fn.Object().IsCallable() {
				if _, err := c.VM.CallFunction(fn, jsvm.Undefined()); err != nil {
					return jsvm.Undefined(), err
				}
			}
			return jsvm.Number(1), nil
		})
	}),
	pageBinding("navigator", (*Page).navigatorObject),
	pageBinding("localStorage", (*Page).localStorageObject),
	pageBinding("DeviceMotionEvent", (*Page).deviceMotionEvent),
	pageBinding("XMLHttpRequest", (*Page).xhrConstructor),
	pageBinding("fetch", (*Page).fetchFunc),
	pageBinding("performance", (*Page).performanceObject),
)

// pageBinding binds name to an object build makes for the VM's page.
func pageBinding(name string, build func(p *Page) *jsvm.Object) jsvm.Binding {
	return jsvm.Binding{Name: name, Build: func(vm *jsvm.VM) jsvm.Value {
		return jsvm.ObjectValue(build(vm.Host.(*Page)))
	}}
}

func (p *Page) consoleObject() *jsvm.Object {
	console := jsvm.NewObject()
	console.SetFunc("log", func(c jsvm.Call) (jsvm.Value, error) {
		parts := make([]string, len(c.Args))
		for i, a := range c.Args {
			parts[i] = a.StringValue()
		}
		p.mu.Lock()
		p.Console = append(p.Console, strings.Join(parts, " "))
		p.mu.Unlock()
		return jsvm.Undefined(), nil
	})
	console.Set("error", console.Get("log"))
	console.Set("warn", console.Get("log"))
	console.Set("info", console.Get("log"))
	return console
}

// locationObject builds location from the page's parsed URL: host keeps
// the port, hostname drops it, as in a browser.
func (p *Page) locationObject() *jsvm.Object {
	location := jsvm.NewObject()
	location.Set("href", jsvm.String(p.URL))
	if p.base != nil && p.base.Host != "" {
		location.Set("host", jsvm.String(p.base.Host))
		location.Set("hostname", jsvm.String(p.base.Hostname()))
	}
	return location
}

// navigatorObject builds navigator, with the clipboard the IAB test page
// probes: async read/write stubs over one deterministic in-page buffer.
func (p *Page) navigatorObject() *jsvm.Object {
	navigator := jsvm.NewObject()
	ua := p.loader.UserAgent
	if ua == "" {
		ua = "Mozilla/5.0 (Linux; Android 12; Pixel 3) BrowserSim/1.0"
	}
	navigator.Set("userAgent", jsvm.String(ua))
	navigator.SetFunc("sendBeacon", func(c jsvm.Call) (jsvm.Value, error) {
		p.recordAPI("Navigator", "sendBeacon")
		p.FetchFromScript(c.Arg(0).StringValue())
		return jsvm.Bool(true), nil
	})

	var clipText string
	clip := jsvm.NewObject()
	clip.SetFunc("writeText", func(c jsvm.Call) (jsvm.Value, error) {
		p.recordAPI("Clipboard", "writeText")
		clipText = c.Arg(0).StringValue()
		return jsvm.ObjectValue(p.resolvedPromise(jsvm.Undefined())), nil
	})
	clip.SetFunc("readText", func(c jsvm.Call) (jsvm.Value, error) {
		p.recordAPI("Clipboard", "readText")
		return jsvm.ObjectValue(p.resolvedPromise(jsvm.String(clipText))), nil
	})
	navigator.Set("clipboard", jsvm.ObjectValue(clip))
	return navigator
}

// xhrConstructor builds XMLHttpRequest: a synchronous single-shot GET,
// enough for beacons and measurement pings. The constructor only links
// the instance to the page's XMLHttpRequest prototype and attaches its
// request state.
func (p *Page) xhrConstructor() *jsvm.Object {
	return jsvm.NewHostFunc("XMLHttpRequest", func(c jsvm.Call) (jsvm.Value, error) {
		xhr := c.This.Object()
		if xhr == nil {
			xhr = jsvm.NewObject()
		}
		xhr.SetPrototype(p.xhrProto())
		xhr.Host = &xhrState{}
		return jsvm.ObjectValue(xhr), nil
	})
}

// fetchFunc builds fetch(): it resolves synchronously, returning a
// pseudo-promise whose then-callback receives {status, text}.
func (p *Page) fetchFunc() *jsvm.Object {
	return jsvm.NewHostFunc("fetch", func(c jsvm.Call) (jsvm.Value, error) {
		p.recordAPI("Window", "fetch")
		body, status := p.FetchFromScript(c.Arg(0).StringValue())
		resp := jsvm.NewObject()
		resp.Set("status", jsvm.Number(float64(status)))
		resp.Set("ok", jsvm.Bool(status >= 200 && status < 300))
		resp.SetFunc("text", func(cc jsvm.Call) (jsvm.Value, error) {
			return jsvm.String(body), nil
		})
		promise := jsvm.NewObject()
		promise.SetFunc("then", func(cc jsvm.Call) (jsvm.Value, error) {
			if fn := cc.Arg(0); fn.Object() != nil && fn.Object().IsCallable() {
				if _, err := cc.VM.CallFunction(fn, jsvm.Undefined(), jsvm.ObjectValue(resp)); err != nil {
					return jsvm.Undefined(), err
				}
			}
			return jsvm.ObjectValue(promise), nil
		})
		promise.SetFunc("catch", func(cc jsvm.Call) (jsvm.Value, error) {
			return jsvm.ObjectValue(promise), nil
		})
		return jsvm.ObjectValue(promise), nil
	})
}

// resolvedPromise returns a fetch-style pseudo-promise already resolved
// with v: then-callbacks run synchronously, catch is a no-op.
func (p *Page) resolvedPromise(v jsvm.Value) *jsvm.Object {
	promise := jsvm.NewObject()
	promise.SetFunc("then", func(c jsvm.Call) (jsvm.Value, error) {
		if fn := c.Arg(0); fn.Object() != nil && fn.Object().IsCallable() {
			if _, err := c.VM.CallFunction(fn, jsvm.Undefined(), v); err != nil {
				return jsvm.Undefined(), err
			}
		}
		return jsvm.ObjectValue(promise), nil
	})
	promise.SetFunc("catch", func(c jsvm.Call) (jsvm.Value, error) {
		return jsvm.ObjectValue(promise), nil
	})
	return promise
}

// The storage and sensor surfaces below, with navigator's clipboard, are
// what the IAB test page probes (the read-only rows of Table 9; sensor and
// clipboard coverage follows the Web-API security literature's probe
// set). Everything is deterministic and records interception like every
// other binding.

// localStorageObject builds localStorage: in-memory, with a deterministic
// quota so storage-probe scripts observe a browser-like
// QuotaExceededError instead of unbounded success.
func (p *Page) localStorageObject() *jsvm.Object {
	const storageQuota = 5120 // bytes of key+value across the store
	store := map[string]string{}
	used := 0
	ls := jsvm.NewObject()
	ls.SetFunc("getItem", func(c jsvm.Call) (jsvm.Value, error) {
		p.recordAPI("Storage", "getItem")
		if v, ok := store[c.Arg(0).StringValue()]; ok {
			return jsvm.String(v), nil
		}
		return jsvm.Null(), nil
	})
	ls.SetFunc("setItem", func(c jsvm.Call) (jsvm.Value, error) {
		p.recordAPI("Storage", "setItem")
		k, v := c.Arg(0).StringValue(), c.Arg(1).StringValue()
		delta := len(k) + len(v) - len(store[k])
		if _, ok := store[k]; !ok {
			delta = len(k) + len(v)
		}
		if used+delta > storageQuota {
			e := jsvm.NewObject()
			e.Set("name", jsvm.String("QuotaExceededError"))
			e.Set("message", jsvm.String("exceeded the quota"))
			return jsvm.Undefined(), &jsvm.Error{Value: jsvm.ObjectValue(e)}
		}
		store[k] = v
		used += delta
		return jsvm.Undefined(), nil
	})
	ls.SetFunc("removeItem", func(c jsvm.Call) (jsvm.Value, error) {
		p.recordAPI("Storage", "removeItem")
		k := c.Arg(0).StringValue()
		if v, ok := store[k]; ok {
			used -= len(k) + len(v)
			delete(store, k)
		}
		return jsvm.Undefined(), nil
	})
	ls.SetFunc("clear", func(c jsvm.Call) (jsvm.Value, error) {
		p.recordAPI("Storage", "clear")
		store = map[string]string{}
		used = 0
		return jsvm.Undefined(), nil
	})
	return ls
}

// deviceMotionEvent builds DeviceMotionEvent: constructible, with the
// iOS-style static requestPermission probe ad scripts use to detect
// sensor access.
func (p *Page) deviceMotionEvent() *jsvm.Object {
	dme := jsvm.NewHostFunc("DeviceMotionEvent", func(c jsvm.Call) (jsvm.Value, error) {
		p.recordAPI("DeviceMotionEvent", "constructor")
		ev := c.This.Object()
		if ev == nil {
			ev = jsvm.NewObject()
		}
		ev.Set("type", c.Arg(0))
		accel := jsvm.NewObject()
		accel.Set("x", jsvm.Number(0))
		accel.Set("y", jsvm.Number(0))
		accel.Set("z", jsvm.Number(0))
		ev.Set("acceleration", jsvm.ObjectValue(accel))
		ev.Set("interval", jsvm.Number(16))
		return jsvm.ObjectValue(ev), nil
	})
	dme.SetFunc("requestPermission", func(c jsvm.Call) (jsvm.Value, error) {
		p.recordAPI("DeviceMotionEvent", "requestPermission")
		return jsvm.ObjectValue(p.resolvedPromise(jsvm.String("granted"))), nil
	})
	return dme
}

func (p *Page) performanceObject() *jsvm.Object {
	perf := jsvm.NewObject()
	var t float64 = 120 // deterministic "DOMContentLoaded at 120ms"
	perf.SetFunc("now", func(c jsvm.Call) (jsvm.Value, error) {
		t += 16
		return jsvm.Number(t), nil
	})
	timing := jsvm.NewObject()
	timing.Set("navigationStart", jsvm.Number(0))
	timing.Set("domContentLoadedEventEnd", jsvm.Number(120))
	timing.Set("loadEventEnd", jsvm.Number(480))
	perf.Set("timing", jsvm.ObjectValue(timing))
	return perf
}

// documentObject wraps the page DOM. Nodes are wrapped once and cached so
// identity comparisons in script behave.
func (p *Page) documentObject() *jsvm.Object {
	doc := jsvm.NewObject()
	record := func(method string) { p.recordAPI("Document", method) }

	doc.SetFunc("getElementById", func(c jsvm.Call) (jsvm.Value, error) {
		record("getElementById")
		n := p.Doc.GetElementByID(c.Arg(0).StringValue())
		if n == nil {
			return jsvm.Null(), nil
		}
		return jsvm.ObjectValue(p.wrapNode(n)), nil
	})
	doc.SetFunc("getElementsByTagName", func(c jsvm.Call) (jsvm.Value, error) {
		record("getElementsByTagName")
		return jsvm.ObjectValue(p.wrapNodeList(p.Doc.GetElementsByTagName(c.Arg(0).StringValue()), p.htmlCollectionProto())), nil
	})
	doc.SetFunc("querySelectorAll", func(c jsvm.Call) (jsvm.Value, error) {
		record("querySelectorAll")
		return jsvm.ObjectValue(p.wrapNodeList(p.Doc.QuerySelectorAll(c.Arg(0).StringValue()), p.nodeListProto())), nil
	})
	doc.SetFunc("querySelector", func(c jsvm.Call) (jsvm.Value, error) {
		record("querySelector")
		nodes := p.Doc.QuerySelectorAll(c.Arg(0).StringValue())
		if len(nodes) == 0 {
			return jsvm.Null(), nil
		}
		return jsvm.ObjectValue(p.wrapNode(nodes[0])), nil
	})
	doc.SetFunc("createElement", func(c jsvm.Call) (jsvm.Value, error) {
		record("createElement")
		return jsvm.ObjectValue(p.wrapNode(p.Doc.CreateElement(c.Arg(0).StringValue()))), nil
	})
	doc.SetFunc("addEventListener", func(c jsvm.Call) (jsvm.Value, error) {
		record("addEventListener")
		return jsvm.Undefined(), nil
	})
	doc.SetFunc("removeEventListener", func(c jsvm.Call) (jsvm.Value, error) {
		record("removeEventListener")
		return jsvm.Undefined(), nil
	})
	doc.Set("title", jsvm.String(p.Doc.Title))
	if body := p.Doc.Body(); body != nil {
		doc.Set("body", jsvm.ObjectValue(p.wrapNode(body)))
	}
	if head := p.Doc.Head(); head != nil {
		doc.Set("head", jsvm.ObjectValue(p.wrapNode(head)))
	}
	doc.Set("URL", jsvm.String(p.URL))
	return doc
}

// xhrState is the request an XMLHttpRequest instance carries in Host.
type xhrState struct{ url string }

// pageProtos are a page's interface prototypes, each built the first
// time a wrapper or an XMLHttpRequest needs it, and per page so no
// object is shared between VMs.
type pageProtos struct {
	element, htmlCollection, nodeList, xhr *jsvm.Object
}

func (p *Page) elementProto() *jsvm.Object {
	if p.protos.element == nil {
		p.protos.element = p.elementPrototype()
	}
	return p.protos.element
}

func (p *Page) htmlCollectionProto() *jsvm.Object {
	if p.protos.htmlCollection == nil {
		p.protos.htmlCollection = p.listPrototype("HTMLCollection")
	}
	return p.protos.htmlCollection
}

func (p *Page) nodeListProto() *jsvm.Object {
	if p.protos.nodeList == nil {
		p.protos.nodeList = p.listPrototype("NodeList")
	}
	return p.protos.nodeList
}

func (p *Page) xhrProto() *jsvm.Object {
	if p.protos.xhr == nil {
		p.protos.xhr = p.xhrPrototype()
	}
	return p.protos.xhr
}

// elementPrototype builds the page's Element interface prototype: the
// operations and attributes every node wrapper inherits, held once
// instead of on every wrapper (WebIDL). They read their node from This;
// any other receiver (a detached `var f = el.getAttribute; f()`) is an
// illegal invocation. Operations record their call under the node's
// concrete interface.
func (p *Page) elementPrototype() *jsvm.Object {
	el := jsvm.NewObject()
	op := func(name string, f func(c jsvm.Call, n *dom.Node) (jsvm.Value, error)) {
		el.SetFunc(name, func(c jsvm.Call) (jsvm.Value, error) {
			n := hostNode(c.This)
			if n == nil {
				return jsvm.Undefined(), illegalInvocation()
			}
			p.recordAPI(interfaceFor(n), name)
			return f(c, n)
		})
	}
	attr := func(name string, get func(n *dom.Node) jsvm.Value) {
		el.SetAccessor(name, func(c jsvm.Call) (jsvm.Value, error) {
			n := hostNode(c.This)
			if n == nil {
				return jsvm.Undefined(), illegalInvocation()
			}
			return get(n), nil
		})
	}
	attr("tagName", func(n *dom.Node) jsvm.Value { return jsvm.String(strings.ToUpper(n.Tag)) })
	attr("id", func(n *dom.Node) jsvm.Value { return jsvm.String(n.ID()) })
	attr("textContent", func(n *dom.Node) jsvm.Value { return jsvm.String(n.Text()) })
	attr("parentNode", func(n *dom.Node) jsvm.Value {
		if n.Parent == nil {
			return jsvm.Null()
		}
		return jsvm.ObjectValue(p.wrapNode(n.Parent))
	})
	op("getAttribute", func(c jsvm.Call, n *dom.Node) (jsvm.Value, error) {
		name := c.Arg(0).StringValue()
		if !n.HasAttr(name) {
			return jsvm.Null(), nil
		}
		return jsvm.String(n.Attr(name)), nil
	})
	op("setAttribute", func(c jsvm.Call, n *dom.Node) (jsvm.Value, error) {
		n.SetAttr(c.Arg(0).StringValue(), c.Arg(1).StringValue())
		return jsvm.Undefined(), nil
	})
	op("hasAttribute", func(c jsvm.Call, n *dom.Node) (jsvm.Value, error) {
		return jsvm.Bool(n.HasAttr(c.Arg(0).StringValue())), nil
	})
	op("getElementsByTagName", func(c jsvm.Call, n *dom.Node) (jsvm.Value, error) {
		tag := strings.ToLower(c.Arg(0).StringValue())
		var out []*dom.Node
		n.Walk(func(m *dom.Node) bool {
			if m != n && m.Type == dom.ElementNode && (tag == "*" || m.Tag == tag) {
				out = append(out, m)
			}
			return true
		})
		return jsvm.ObjectValue(p.wrapNodeList(out, p.htmlCollectionProto())), nil
	})
	op("appendChild", func(c jsvm.Call, n *dom.Node) (jsvm.Value, error) {
		if child := hostNode(c.Arg(0)); child != nil {
			n.AppendChild(child)
			p.syncAttrs(c.Arg(0).Object(), child)
		}
		return c.Arg(0), nil
	})
	op("insertBefore", func(c jsvm.Call, n *dom.Node) (jsvm.Value, error) {
		if child := hostNode(c.Arg(0)); child != nil {
			n.InsertBefore(child, hostNode(c.Arg(1)))
			p.syncAttrs(c.Arg(0).Object(), child)
		}
		return c.Arg(0), nil
	})
	op("removeChild", func(c jsvm.Call, n *dom.Node) (jsvm.Value, error) {
		if child := hostNode(c.Arg(0)); child != nil && child.Parent == n {
			child.Detach()
		}
		return c.Arg(0), nil
	})
	op("addEventListener", func(c jsvm.Call, n *dom.Node) (jsvm.Value, error) {
		return jsvm.Undefined(), nil
	})
	return el
}

// xhrPrototype builds the page's XMLHttpRequest prototype. Its
// operations read the instance's request from This.
func (p *Page) xhrPrototype() *jsvm.Object {
	proto := jsvm.NewObject()
	xop := func(name string, f func(c jsvm.Call, xhr *jsvm.Object, st *xhrState) (jsvm.Value, error)) {
		proto.SetFunc(name, func(c jsvm.Call) (jsvm.Value, error) {
			xhr := c.This.Object()
			var st *xhrState
			if xhr != nil {
				st, _ = xhr.Host.(*xhrState)
			}
			if st == nil {
				return jsvm.Undefined(), illegalInvocation()
			}
			return f(c, xhr, st)
		})
	}
	xop("open", func(c jsvm.Call, _ *jsvm.Object, st *xhrState) (jsvm.Value, error) {
		p.recordAPI("XMLHttpRequest", "open")
		st.url = c.Arg(1).StringValue()
		return jsvm.Undefined(), nil
	})
	xop("send", func(c jsvm.Call, xhr *jsvm.Object, st *xhrState) (jsvm.Value, error) {
		p.recordAPI("XMLHttpRequest", "send")
		body, status := p.FetchFromScript(st.url)
		xhr.Set("status", jsvm.Number(float64(status)))
		xhr.Set("responseText", jsvm.String(body))
		xhr.Set("readyState", jsvm.Number(4))
		if cb := xhr.Get("onreadystatechange"); cb.Object() != nil && cb.Object().IsCallable() {
			if _, err := c.VM.CallFunction(cb, jsvm.ObjectValue(xhr)); err != nil {
				return jsvm.Undefined(), err
			}
		}
		return jsvm.Undefined(), nil
	})
	xop("setRequestHeader", func(jsvm.Call, *jsvm.Object, *xhrState) (jsvm.Value, error) {
		return jsvm.Undefined(), nil
	})
	return proto
}

// listPrototype builds a node-list prototype whose item operation is
// recorded under iface (HTMLCollection for tag queries, NodeList for
// selector queries).
func (p *Page) listPrototype(iface string) *jsvm.Object {
	proto := jsvm.NewObject()
	proto.SetFunc("item", func(c jsvm.Call) (jsvm.Value, error) {
		list := c.This.Object()
		if list == nil || list.Prototype() != proto {
			return jsvm.Undefined(), illegalInvocation()
		}
		p.recordAPI(iface, "item")
		return list.Index(int(c.Arg(0).NumberValue())), nil
	})
	return proto
}

// illegalInvocation is the TypeError browsers throw when an interface
// operation runs on a receiver that is not of its interface.
func illegalInvocation() error {
	e := jsvm.NewObject()
	e.Set("name", jsvm.String("TypeError"))
	e.Set("message", jsvm.String("Illegal invocation"))
	return &jsvm.Error{Value: jsvm.ObjectValue(e)}
}

// wrapNodeList exposes a node list inheriting from proto.
func (p *Page) wrapNodeList(nodes []*dom.Node, proto *jsvm.Object) *jsvm.Object {
	arr := jsvm.NewArray()
	arr.SetPrototype(proto)
	for _, n := range nodes {
		arr.Append(jsvm.ObjectValue(p.wrapNode(n)))
	}
	return arr
}

// wrapNode exposes one DOM node to script. A node is wrapped once, so
// identity comparisons in script behave; the wrapper holds only the node
// (its Element members live on the page's prototype) plus whatever
// script writes to it.
func (p *Page) wrapNode(n *dom.Node) *jsvm.Object {
	p.mu.Lock()
	defer p.mu.Unlock()
	o, ok := p.nodeWraps[n]
	if !ok {
		o = jsvm.NewInstance(p.elementProto(), n)
		p.nodeWraps[n] = o
	}
	return o
}

// syncAttrs copies the script-set id/src/href properties back onto the DOM
// node when it is attached (scripts set `js.src = url` before insertion).
func (p *Page) syncAttrs(wrapper *jsvm.Object, n *dom.Node) {
	if wrapper == nil {
		return
	}
	for _, attr := range [...]string{"id", "src", "href", "class"} {
		if v := wrapper.Get(attr); !v.IsUndefined() && v.StringValue() != "" {
			n.SetAttr(attr, v.StringValue())
		}
	}
	// An inserted <script src=…> triggers a (injection-initiated) fetch,
	// the behaviour the FB/IG autofill injector relies on.
	if n.Tag == "script" {
		if src := n.Attr("src"); src != "" {
			p.FetchFromScript(src)
		}
	}
}

func hostNode(v jsvm.Value) *dom.Node {
	o := v.Object()
	if o == nil {
		return nil
	}
	n, _ := o.Host.(*dom.Node)
	return n
}

func interfaceFor(n *dom.Node) string {
	switch n.Tag {
	case "body":
		return "HTMLBodyElement"
	case "meta":
		return "HTMLMetaElement"
	case "script":
		return "HTMLScriptElement"
	default:
		return "Element"
	}
}
