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
	"slices"
	"sort"
	"strings"

	"repro/internal/android"
	"repro/internal/dalvik"
	"repro/internal/intern"
)

// Graph is a call graph over one sdex file. Build numbers every class and
// every defined method in dex order, resolves every invoke once and
// computes entry-point reachability once; the traversals here and the
// dataflow engines built on the graph (internal/urlextract) read those
// tables by number. No table is keyed by a string: a class is looked up
// by binary search over the names, a method by scanning its class. A
// Graph is not safe for concurrent use: hierarchy queries memoise their
// results.
type Graph struct {
	// classes holds the numbered classes: a class's number is its index.
	classes []class
	// byName lists the class numbers in name order; nil when the file
	// lists its classes in strictly ascending name order, as Decode
	// guarantees, so that a class's number is its position.
	byName []int32
	// index holds, class after class, the method positions of every class
	// with more than linearScan methods, in (name, signature) order.
	index []int32
	// repeats maps the number of a class that defines a method twice to
	// the number of each of its methods by position, -1 for a repeat.
	// Decode and Validate reject such classes, so it is nil but for
	// hand-built files.
	repeats map[int32][]int32
	// methods holds the numbered methods: a method's number is its index.
	methods []method
	// targets and callees back every method's tables.
	targets, callees []int32
	// reach marks, by number, the methods reachable from an entry point.
	reach []bool
}

type class struct {
	def *dalvik.Class
	// super is the number of the superclass; -1 when the file does not
	// define it.
	super int32
	// first is the number of the class's first method.
	first int32
	// index is where the class's sorted method positions start in
	// Graph.index; -1 for a class of at most linearScan methods, which
	// lookups scan.
	index int32
	// walked memoises the superclass walks, which AnalyzeUsage and the
	// entry-point test would otherwise repeat for every method and invoke.
	walked uint8
}

// Bits of class.walked.
const (
	webViewKnown uint8 = 1 << iota
	webViewYes
	componentKnown
	componentYes
)

type method struct {
	def *dalvik.Method
	// class is the number of the defining class.
	class int32
	// targets is where the method's per-instruction targets start in
	// Graph.targets: the number of the method an invoke there resolves
	// to, -1 for external targets and other instructions.
	targets int32
	// callees and calleesEnd delimit, in Graph.callees, the distinct
	// resolved callees in first-call order.
	callees, calleesEnd int32
}

// maxHierarchy bounds every superclass-chain walk: corrupt input can
// contain hierarchy cycles, which Decode cannot see.
const maxHierarchy = 1000

// linearScan is the most methods a class may have for a lookup to scan
// them; a larger class is searched through its sorted index, so resolving
// every invoke of a huge class stays O(n log n).
const linearScan = 16

// Build constructs the graph. It never fails: unresolved targets are simply
// external edges. Should a file define a class or a method twice (Decode
// and Validate reject both), the first definition wins.
func Build(dex *dalvik.File) *Graph {
	g := &Graph{}
	g.numberClasses(dex)
	g.numberMethods(dex.MethodCount())

	// Resolve every invoke into one backing array per table; a method
	// adds each callee once, which lastCaller (caller number + 1) tracks.
	lastCaller := make([]int32, len(g.methods))
	for i := range g.methods {
		m := &g.methods[i]
		code := m.def.Code
		targets := g.targets[m.targets : int(m.targets)+len(code)]
		m.callees = int32(len(g.callees))
		for pc := range code {
			t := int32(-1)
			if code[pc].Op.IsInvoke() {
				t = g.resolve(code[pc].Target)
			}
			targets[pc] = t
			if t >= 0 && lastCaller[t] != int32(i)+1 {
				lastCaller[t] = int32(i) + 1
				g.callees = append(g.callees, t)
			}
		}
		m.calleesEnd = int32(len(g.callees))
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
		for _, c := range g.Callees(cur) {
			if !g.reach[c] {
				g.reach[c] = true
				stack = append(stack, c)
			}
		}
	}
	return g
}

// numberClasses numbers the classes of dex in dex order, the first
// definition of a name only, and links each to its superclass.
func (g *Graph) numberClasses(dex *dalvik.File) {
	sorted := true
	for i := 1; i < len(dex.Classes) && sorted; i++ {
		sorted = dex.Classes[i-1].Name < dex.Classes[i].Name
	}
	if sorted {
		g.classes = make([]class, len(dex.Classes))
		for i := range dex.Classes {
			g.classes[i].def = &dex.Classes[i]
		}
	} else {
		// Order the positions by name, the first definition of a name
		// first; later definitions are not numbered.
		order := make([]int32, len(dex.Classes))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortStableFunc(order, func(a, b int32) int {
			return strings.Compare(dex.Classes[a].Name, dex.Classes[b].Name)
		})
		first := make([]bool, len(dex.Classes))
		for k, i := range order {
			first[i] = k == 0 || dex.Classes[order[k-1]].Name != dex.Classes[i].Name
		}
		num := make([]int32, len(dex.Classes))
		for i := range dex.Classes {
			num[i] = -1
			if first[i] {
				num[i] = int32(len(g.classes))
				g.classes = append(g.classes, class{def: &dex.Classes[i]})
			}
		}
		g.byName = order[:0]
		for _, i := range order {
			if num[i] >= 0 {
				g.byName = append(g.byName, num[i])
			}
		}
	}
	for ci := range g.classes {
		g.classes[ci].super = g.classNum(g.classes[ci].def.SuperName)
	}
}

// numberMethods numbers the methods of every numbered class in dex order,
// the first definition of a name and signature only, indexes the large
// classes and sizes the per-instruction targets table.
func (g *Graph) numberMethods(n int) {
	indexed := 0
	for ci := range g.classes {
		if k := len(g.classes[ci].def.Methods); k > linearScan {
			indexed += k
		}
	}
	if indexed > 0 {
		g.index = make([]int32, 0, indexed)
	}
	g.methods = make([]method, 0, n)
	insns := 0
	for ci := range g.classes {
		c := &g.classes[ci]
		ms := c.def.Methods
		c.first, c.index = int32(len(g.methods)), -1
		if len(ms) > linearScan {
			c.index = int32(len(g.index))
			for j := range ms {
				g.index = append(g.index, int32(j))
			}
			slices.SortStableFunc(g.index[c.index:], func(a, b int32) int {
				return compareMethod(&ms[a], ms[b].Name, ms[b].Signature)
			})
		}
		var nums []int32
		for j := range ms {
			m := &ms[j]
			if g.find(c, m.Name, m.Signature) != j {
				if nums == nil {
					nums = make([]int32, len(ms))
					for k := range j {
						nums[k] = c.first + int32(k)
					}
				}
				nums[j] = -1
				continue
			}
			if nums != nil {
				nums[j] = int32(len(g.methods))
			}
			g.methods = append(g.methods, method{def: m, class: int32(ci), targets: int32(insns)})
			insns += len(m.Code)
		}
		if nums != nil {
			if g.repeats == nil {
				g.repeats = make(map[int32][]int32)
			}
			g.repeats[int32(ci)] = nums
		}
	}
	g.targets = make([]int32, insns)
	g.callees = make([]int32, 0, insns)
}

// classNum returns the number of the class named name, or -1 when the
// file does not define it.
func (g *Graph) classNum(name string) int32 {
	if name == "" {
		return -1
	}
	lo, hi := 0, len(g.classes)
	if g.byName != nil {
		hi = len(g.byName)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		ci := int32(mid)
		if g.byName != nil {
			ci = g.byName[mid]
		}
		switch c := strings.Compare(g.classes[ci].def.Name, name); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return ci
		}
	}
	return -1
}

// compareMethod orders m against the method name and signature sig.
func compareMethod(m *dalvik.Method, name, sig string) int {
	if c := strings.Compare(m.Name, name); c != 0 {
		return c
	}
	return strings.Compare(m.Signature, sig)
}

// find returns the position of the first method of c with the given name
// and signature, or -1.
func (g *Graph) find(c *class, name, sig string) int {
	ms := c.def.Methods
	if c.index < 0 {
		for j := range ms {
			if ms[j].Name == name && ms[j].Signature == sig {
				return j
			}
		}
		return -1
	}
	ix := g.index[c.index : int(c.index)+len(ms)]
	lo, hi := 0, len(ix)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareMethod(&ms[ix[mid]], name, sig) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ix) && compareMethod(&ms[ix[lo]], name, sig) == 0 {
		return int(ix[lo])
	}
	return -1
}

// resolve finds the number of the definition a call to ref would dispatch
// to: the method on ref.Class or on the nearest in-file superclass defining
// it. It returns -1 for external targets and for chains the bounded walk
// does not finish.
func (g *Graph) resolve(ref *dalvik.MethodRef) int32 {
	ci := g.classNum(ref.Class)
	for steps := 0; ci >= 0 && steps < maxHierarchy; steps++ {
		c := &g.classes[ci]
		if j := g.find(c, ref.Name, ref.Signature); j >= 0 {
			if nums, ok := g.repeats[ci]; ok {
				return nums[j]
			}
			return c.first + int32(j)
		}
		ci = c.super
	}
	return -1
}

// NumMethods returns how many methods the graph numbers: every defined
// method, in dex order.
func (g *Graph) NumMethods() int { return len(g.methods) }

// Ref returns the reference that invokes use to target method i.
func (g *Graph) Ref(i int32) dalvik.MethodRef {
	m := &g.methods[i]
	return m.def.Ref(g.classes[m.class].def.Name)
}

// Code returns the body of method i.
func (g *Graph) Code(i int32) []dalvik.Instruction { return g.methods[i].def.Code }

// Targets returns, for every instruction of method i, the number of the
// method an invoke there resolves to: the definition on the target class
// or its nearest in-file superclass. -1 marks external targets and
// instructions that are not invokes.
func (g *Graph) Targets(i int32) []int32 {
	m := &g.methods[i]
	end := int(m.targets) + len(m.def.Code)
	return g.targets[m.targets:end:end]
}

// Callees returns the distinct methods i invokes, resolved, in first-call
// order.
func (g *Graph) Callees(i int32) []int32 {
	m := &g.methods[i]
	return g.callees[m.callees:m.calleesEnd:m.calleesEnd]
}

// Reachable reports whether method i is reachable from an entry point.
func (g *Graph) Reachable(i int32) bool { return g.reach[i] }

// IsSubclassOf walks the in-file superclass chain of name and reports
// whether it reaches root (which may be an external framework class).
func (g *Graph) IsSubclassOf(name, root string) bool {
	return g.subclassOf(name, g.classNum(name), root)
}

// subclassOf is IsSubclassOf for the class named name, whose number is
// ci (-1 when the file does not define it).
func (g *Graph) subclassOf(name string, ci int32, root string) bool {
	for steps := 0; name != ""; steps++ {
		if name == root {
			return true
		}
		if ci < 0 {
			return false // chain left the file without hitting root
		}
		if steps == maxHierarchy {
			return false // defensive: cyclic hierarchy in corrupt input
		}
		c := &g.classes[ci]
		name, ci = c.def.SuperName, c.super
	}
	return false
}

// IsWebViewClass reports whether name is android.webkit.WebView or an
// in-file subclass of it (a "custom WebView", §3.1.2).
func (g *Graph) IsWebViewClass(name string) bool {
	if name == android.WebViewClass {
		return true
	}
	ci := g.classNum(name)
	return ci >= 0 && g.isWebView(ci)
}

// isWebView reports whether class ci extends WebView, walking its
// superclass chain once.
func (g *Graph) isWebView(ci int32) bool {
	c := &g.classes[ci]
	if c.walked&webViewKnown == 0 {
		c.walked |= webViewKnown
		if g.subclassOf(c.def.Name, ci, android.WebViewClass) {
			c.walked |= webViewYes
		}
	}
	return c.walked&webViewYes != 0
}

// WebViewSubclasses lists the in-file classes that extend WebView,
// directly or transitively, sorted by name. Names are interned: subclass
// lists are retained in analysis results long after the dex is dropped.
func (g *Graph) WebViewSubclasses() []string {
	var out []string
	for ci := range g.classes {
		name := g.classes[ci].def.Name
		if name != android.WebViewClass && g.isWebView(int32(ci)) {
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

// isComponent reports whether class ci transitively extends one of the
// four Android component base classes, walking its chain once.
func (g *Graph) isComponent(ci int32) bool {
	c := &g.classes[ci]
	if c.walked&componentKnown == 0 {
		c.walked |= componentKnown
		for _, root := range componentRoots {
			if g.subclassOf(c.def.Name, ci, root) {
				c.walked |= componentYes
				break
			}
		}
	}
	return c.walked&componentYes != 0
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
	return entryPointNames[name] && (strings.HasPrefix(name, "on") || g.isComponent(m.class))
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
		cls := g.classes[m.class].def.Name
		if !g.reach[i] || excludeClasses[cls] {
			continue
		}
		ref := m.def.Ref(cls)
		lastStr := ""
		code := m.def.Code
		for pc := range code {
			switch ins := &code[pc]; {
			case ins.Op == dalvik.OpConstString:
				lastStr = ins.Str
			case ins.Op == dalvik.OpNewInstance && isCustomTabsClass(ins.Str):
				u.CTCalls = append(u.CTCalls, APICall{
					Caller: ref,
					Target: dalvik.MethodRef{Class: ins.Str, Name: "<init>", Signature: "()void"},
				})
			case ins.Op.IsInvoke():
				t := ins.Target
				switch {
				case android.IsWebViewMethod(t.Name) && g.IsWebViewClass(t.Class):
					// Normalise custom-subclass receivers to the
					// framework class so consumers see one API surface.
					norm := *t
					norm.Class = android.WebViewClass
					u.WebViewCalls = append(u.WebViewCalls, APICall{Caller: ref, Target: norm, URLHint: lastStr})
				case isCustomTabsClass(t.Class):
					u.CTCalls = append(u.CTCalls, APICall{Caller: ref, Target: *t, URLHint: lastStr})
				}
			}
		}
	}
	return u
}
