// Package callgraph builds call graphs from sdex bytecode and traverses
// them from Android entry points, playing the role Androguard plays in the
// paper's pipeline (steps 4–5 of Figure 1).
//
// An Android app has no main function; the graph is therefore rooted at
// every component lifecycle method and GUI callback (§3.1.3). Traversal
// records each reachable call to a WebView API method and each Custom Tabs
// initialisation, together with the calling class — the raw material for
// SDK attribution (§3.1.4).
package callgraph

import (
	"sort"
	"strings"

	"repro/internal/android"
	"repro/internal/dalvik"
	"repro/internal/intern"
)

// Graph is a call graph over one sdex file. Build numbers every defined
// method in dex order, resolves every invoke once and computes entry-point
// reachability once; the traversals here and the dataflow engines built on
// the graph (internal/urlextract) read those tables by method number. A
// Graph is not safe for concurrent use: hierarchy queries memoise their
// results.
type Graph struct {
	classes map[string]*dalvik.Class
	// methods holds the numbered methods: a method's number is its index.
	methods []method
	// reach marks, by number, the methods reachable from an entry point.
	reach []bool
	// webview / component memoise the superclass-chain walks, which
	// AnalyzeUsage would otherwise repeat for every invoke instruction.
	webview   map[string]bool
	component map[string]bool
}

type method struct {
	class *dalvik.Class
	def   *dalvik.Method
	// targets holds, per instruction, the number of the method an invoke
	// there resolves to; -1 for external targets and other instructions.
	targets []int32
	// callees lists the distinct resolved callees in first-call order.
	callees []int32
}

// maxHierarchy bounds every superclass-chain walk: corrupt input can
// contain hierarchy cycles, which Decode cannot see.
const maxHierarchy = 1000

// Build constructs the graph. It never fails: unresolved targets are simply
// external edges. Should a file define a class or a method twice (Decode
// and Validate reject both), the first definition wins.
func Build(dex *dalvik.File) *Graph {
	n := dex.MethodCount()
	g := &Graph{
		classes: make(map[string]*dalvik.Class, len(dex.Classes)),
		methods: make([]method, 0, n),
	}
	ids := make(map[dalvik.MethodRef]int32, n)
	insns := 0
	for i := range dex.Classes {
		c := &dex.Classes[i]
		if g.classes[c.Name] != nil {
			continue
		}
		g.classes[c.Name] = c
		for j := range c.Methods {
			m := &c.Methods[j]
			ref := m.Ref(c.Name)
			if _, dup := ids[ref]; dup {
				continue
			}
			ids[ref] = int32(len(g.methods))
			g.methods = append(g.methods, method{class: c, def: m})
			insns += len(m.Code)
		}
	}

	// Resolve every invoke into one backing array per table; a method
	// adds each callee once, which lastCaller (caller number + 1) tracks.
	targets := make([]int32, insns)
	callees := make([]int32, 0, insns)
	lastCaller := make([]int32, len(g.methods))
	for i := range g.methods {
		m := &g.methods[i]
		code := m.def.Code
		m.targets, targets = targets[:len(code):len(code)], targets[len(code):]
		start := len(callees)
		for pc := range code {
			t := int32(-1)
			if code[pc].Op.IsInvoke() {
				t = g.resolve(ids, code[pc].Target)
			}
			m.targets[pc] = t
			if t >= 0 && lastCaller[t] != int32(i)+1 {
				lastCaller[t] = int32(i) + 1
				callees = append(callees, t)
			}
		}
		m.callees = callees[start:len(callees):len(callees)]
	}

	// Entry-point reachability, once per graph.
	g.reach = make([]bool, len(g.methods))
	var stack []int32
	for i := range g.methods {
		if g.isEntryPoint(&g.methods[i]) {
			g.reach[i] = true
			stack = append(stack, int32(i))
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.methods[cur].callees {
			if !g.reach[c] {
				g.reach[c] = true
				stack = append(stack, c)
			}
		}
	}
	return g
}

// resolve finds the number of the definition a call to ref would dispatch
// to: the method on ref.Class or on the nearest in-file superclass defining
// it. It returns -1 for external targets and for chains the bounded walk
// does not finish.
func (g *Graph) resolve(ids map[dalvik.MethodRef]int32, ref dalvik.MethodRef) int32 {
	for steps := 0; ref.Class != "" && steps < maxHierarchy; steps++ {
		if id, ok := ids[ref]; ok {
			return id
		}
		c := g.classes[ref.Class]
		if c == nil {
			return -1
		}
		ref.Class = c.SuperName
	}
	return -1
}

// NumMethods returns how many methods the graph numbers: every defined
// method, in dex order.
func (g *Graph) NumMethods() int { return len(g.methods) }

// Ref returns the reference that invokes use to target method i.
func (g *Graph) Ref(i int32) dalvik.MethodRef {
	m := &g.methods[i]
	return m.def.Ref(m.class.Name)
}

// Code returns the body of method i.
func (g *Graph) Code(i int32) []dalvik.Instruction { return g.methods[i].def.Code }

// Targets returns, for every instruction of method i, the number of the
// method an invoke there resolves to: the definition on the target class
// or its nearest in-file superclass. -1 marks external targets and
// instructions that are not invokes.
func (g *Graph) Targets(i int32) []int32 { return g.methods[i].targets }

// Callees returns the distinct methods i invokes, resolved, in first-call
// order.
func (g *Graph) Callees(i int32) []int32 { return g.methods[i].callees }

// Reachable reports whether method i is reachable from an entry point.
func (g *Graph) Reachable(i int32) bool { return g.reach[i] }

// IsSubclassOf walks the in-file superclass chain of name and reports
// whether it reaches root (which may be an external framework class).
func (g *Graph) IsSubclassOf(name, root string) bool {
	seen := 0
	for name != "" {
		if name == root {
			return true
		}
		c := g.classes[name]
		if c == nil {
			return false // chain left the file without hitting root
		}
		name = c.SuperName
		if seen++; seen > maxHierarchy {
			return false // defensive: cyclic hierarchy in corrupt input
		}
	}
	return false
}

// IsWebViewClass reports whether name is android.webkit.WebView or an
// in-file subclass of it (a "custom WebView", §3.1.2).
func (g *Graph) IsWebViewClass(name string) bool {
	if v, ok := g.webview[name]; ok {
		return v
	}
	v := g.IsSubclassOf(name, android.WebViewClass)
	if g.webview == nil {
		g.webview = make(map[string]bool, 16)
	}
	g.webview[name] = v
	return v
}

// WebViewSubclasses lists the in-file classes that extend WebView,
// directly or transitively, sorted by name. Names are interned: subclass
// lists are retained in analysis results long after the dex is dropped.
func (g *Graph) WebViewSubclasses() []string {
	var out []string
	for name := range g.classes {
		if name != android.WebViewClass && g.IsWebViewClass(name) {
			out = append(out, intern.String(name))
		}
	}
	sort.Strings(out)
	return out
}

// componentRoots are the framework classes whose subclasses are app
// components and therefore entry-point hosts.
var componentRoots = []string{
	android.ActivityClass,
	android.ServiceClass,
	android.BroadcastReceiverClass,
	android.ContentProviderClass,
}

// isComponent reports whether the class transitively extends one of the
// four Android component base classes.
func (g *Graph) isComponent(name string) bool {
	if v, ok := g.component[name]; ok {
		return v
	}
	v := false
	for _, root := range componentRoots {
		if g.IsSubclassOf(name, root) {
			v = true
			break
		}
	}
	if g.component == nil {
		g.component = make(map[string]bool, 8)
	}
	g.component[name] = v
	return v
}

var entryPointNames = func() map[string]bool {
	m := make(map[string]bool, len(android.LifecycleEntryPoints))
	for _, n := range android.LifecycleEntryPoints {
		m[n] = true
	}
	return m
}()

// isEntryPoint reports whether m is a traversal root: a lifecycle or
// callback method on a component class, or a GUI callback (onClick and
// friends) on any class, because listeners are registered dynamically and
// the registration is invisible to a static scan.
func (g *Graph) isEntryPoint(m *method) bool {
	name := m.def.Name
	return entryPointNames[name] && (strings.HasPrefix(name, "on") || g.isComponent(m.class.Name))
}

// EntryPoints enumerates the traversal roots in reference order.
func (g *Graph) EntryPoints() []dalvik.MethodRef {
	var eps []dalvik.MethodRef
	for i := range g.methods {
		if g.isEntryPoint(&g.methods[i]) {
			eps = append(eps, g.Ref(int32(i)))
		}
	}
	sort.Slice(eps, func(i, j int) bool {
		a, b := eps[i], eps[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Signature < b.Signature
	})
	return eps
}

// APICall is one recorded call of interest: a WebView API method call or a
// Custom Tabs initialisation, attributed to its calling method.
type APICall struct {
	Caller dalvik.MethodRef // the method containing the call site
	Target dalvik.MethodRef // the invoked framework method
	// URLHint is the nearest preceding string constant in the caller —
	// usually the URL passed to loadUrl/launchUrl.
	URLHint string
}

// CallerPackage returns the Java package of the calling class, used for
// SDK attribution.
func (c APICall) CallerPackage() string { return dalvik.PackageOf(c.Caller.Class) }

// Usage is the per-app result of the static WebView/CT measurement.
type Usage struct {
	// WebViewCalls holds every reachable call to a measured WebView API
	// method (on WebView itself or a custom subclass).
	WebViewCalls []APICall
	// CTCalls holds every reachable Custom Tabs initialisation or launch.
	CTCalls []APICall
	// WebViewSubclasses lists in-file custom WebView classes.
	WebViewSubclasses []string
}

// UsesWebView reports whether any WebView API call was reachable.
func (u *Usage) UsesWebView() bool { return len(u.WebViewCalls) > 0 }

// UsesCT reports whether any Custom Tabs use was reachable.
func (u *Usage) UsesCT() bool { return len(u.CTCalls) > 0 }

// MethodsCalled returns the distinct WebView method names called, sorted.
// Names are interned: they outlive the dex file in analysis results.
func (u *Usage) MethodsCalled() []string {
	set := make(map[string]bool, 8)
	for _, c := range u.WebViewCalls {
		set[c.Target.Name] = true
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, intern.String(m))
	}
	sort.Strings(out)
	return out
}

func isCustomTabsClass(name string) bool {
	return name == android.CustomTabsIntentClass ||
		name == android.CustomTabsIntentBuilderClass ||
		name == android.CustomTabsCallbackClass ||
		strings.HasPrefix(name, "androidx.browser.customtabs.")
}

// AnalyzeUsage traverses the graph from its entry points and records every
// reachable WebView API call and CT initialisation. excludeClasses removes
// call sites hosted in the named classes (the pipeline passes deep-link
// activities here, §3.1.3).
func (g *Graph) AnalyzeUsage(excludeClasses map[string]bool) *Usage {
	u := &Usage{WebViewSubclasses: g.WebViewSubclasses()}
	// Method-number order is file order, so the result is deterministic.
	for i := range g.methods {
		m := &g.methods[i]
		if !g.reach[i] || excludeClasses[m.class.Name] {
			continue
		}
		ref := m.def.Ref(m.class.Name)
		lastStr := ""
		for _, ins := range m.def.Code {
			switch {
			case ins.Op == dalvik.OpConstString:
				lastStr = ins.Str
			case ins.Op == dalvik.OpNewInstance && isCustomTabsClass(ins.Type):
				u.CTCalls = append(u.CTCalls, APICall{
					Caller: ref,
					Target: dalvik.MethodRef{Class: ins.Type, Name: "<init>", Signature: "()void"},
				})
			case ins.Op.IsInvoke():
				t := ins.Target
				switch {
				case g.IsWebViewClass(t.Class) && android.IsWebViewMethod(t.Name):
					// Normalise custom-subclass receivers to the
					// framework class so consumers see one API surface.
					norm := t
					norm.Class = android.WebViewClass
					u.WebViewCalls = append(u.WebViewCalls, APICall{Caller: ref, Target: norm, URLHint: lastStr})
				case isCustomTabsClass(t.Class):
					u.CTCalls = append(u.CTCalls, APICall{Caller: ref, Target: t, URLHint: lastStr})
				}
			}
		}
	}
	return u
}
