package urlextract

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/android"
	"repro/internal/callgraph"
	"repro/internal/dalvik"
	"repro/internal/sdkindex"
)

// Endpoint is one statically recovered network destination: a sink call
// site plus the best string the dataflow engine could prove reaches it.
type Endpoint struct {
	Class  string `json:"class"`
	Method string `json:"method"`
	API    string `json:"api"`
	// Kind is "full" (exact URL known), "prefix" (constant prefix known,
	// tail dynamic) or "dynamic" (nothing provable).
	Kind string `json:"kind"`
	URL  string `json:"url,omitempty"`
	// Host is the complete authority host when determinable. Prefix
	// endpoints cut mid-host leave it empty; compare with HostPrefixOf.
	Host        string `json:"host,omitempty"`
	SDK         string `json:"sdk,omitempty"`
	SDKCategory string `json:"sdk_category,omitempty"`
	FirstParty  bool   `json:"first_party"`
}

// Endpoint kinds.
const (
	KindFull    = "full"
	KindPrefix  = "prefix"
	KindDynamic = "dynamic"
)

// Config bounds the engine. Zero values select the defaults.
type Config struct {
	// MaxStack caps the abstract operand stack; deeper pushes slide the
	// window (oldest operand dropped), keeping trailing-arg consumption
	// exact. Default 48.
	MaxStack int
	// MaxTemplates caps parameter-dependent sink templates per method
	// summary. Default 16.
	MaxTemplates int
}

const (
	defaultMaxStack     = 48
	defaultMaxTemplates = 16
	// engineVersion feeds the fingerprint; bump on any semantic change so
	// cached pipeline results re-extract.
	engineVersion = 1
)

func (c *Config) normalize() {
	if c.MaxStack <= 0 {
		c.MaxStack = defaultMaxStack
	}
	if c.MaxTemplates <= 0 {
		c.MaxTemplates = defaultMaxTemplates
	}
}

// Extractor runs the interprocedural extraction. It is stateless across
// calls and safe for concurrent use by multiple pipeline workers.
type Extractor struct {
	cfg Config
	fp  string
}

// New returns an extractor with the given bounds.
func New(cfg Config) *Extractor {
	cfg.normalize()
	h := sha256.Sum256([]byte(fmt.Sprintf(
		"urlextract:v%d|prefix=%d|stack=%d|templates=%d|sinks=%s",
		engineVersion, maxPrefix, cfg.MaxStack, cfg.MaxTemplates, sinkFingerprint)))
	return &Extractor{cfg: cfg, fp: hex.EncodeToString(h[:])[:16]}
}

// Fingerprint identifies the engine semantics and bounds; it is mixed
// into the pipeline's result-cache key so warm runs skip extraction.
func (e *Extractor) Fingerprint() string { return e.fp }

// Modelled framework types.
const (
	classURL           = "java.net.URL"
	classStringBuilder = "java.lang.StringBuilder"
	classString        = "java.lang.String"
	ctorName           = "<init>"
)

// sinkFingerprint names the sink set inside the engine fingerprint.
const sinkFingerprint = "loadUrl,postUrl,loadDataWithBaseURL,launchUrl,URL.<init>"

var (
	slot0   = []int{0}
	slot1   = []int{1}
	slots01 = []int{0, 1}
	slots04 = []int{0, 4}
)

// sinkSlots returns the argument slots of t that may carry a URL, or nil
// when t is not a sink. postUrl's URL is nominally slot 0, but the corpus
// builder pushes the constant immediately before the call, which lands it
// in the trailing slot — check both.
func sinkSlots(g *callgraph.Graph, t *dalvik.MethodRef) []int {
	switch t.Name {
	case android.MethodLoadURL:
		if isWebViewReceiver(g, t.Class) {
			return slot0
		}
	case android.MethodPostURL:
		if isWebViewReceiver(g, t.Class) {
			return slots01
		}
	case android.MethodLoadDataWithBaseURL:
		if isWebViewReceiver(g, t.Class) {
			return slots04
		}
	case android.MethodLaunchURL:
		if t.Class == android.CustomTabsIntentClass {
			return slot1
		}
	case ctorName:
		if t.Class == classURL {
			return slot0
		}
	}
	return nil
}

func isWebViewReceiver(g *callgraph.Graph, name string) bool {
	return name == android.WebViewClass || g.IsWebViewClass(name)
}

func apiName(t *dalvik.MethodRef) string {
	cls := t.Class
	if i := strings.LastIndexByte(cls, '.'); i >= 0 {
		cls = cls[i+1:]
	}
	return cls + "." + t.Name
}

// arity counts the parameters in a compact signature like "(String,int)void".
func arity(sig string) int {
	i := strings.IndexByte(sig, '(')
	j := strings.IndexByte(sig, ')')
	if i < 0 || j <= i+1 {
		return 0
	}
	return strings.Count(sig[i+1:j], ",") + 1
}

// Summary is what callers see of a method: the lattice value it returns
// and the parameter-dependent sink templates awaiting instantiation.
type Summary struct {
	Ret   Value
	Sinks []Template
}

// Template is a sink whose URL argument still depends on a parameter of
// the summarised method; Site indexes the run's site table.
type Template struct {
	Site int
	Val  Value
}

type sinkSite struct {
	method   int32 // the sink's caller, by graph method number
	api      string
	val      Value
	grounded bool
}

type rawEndpoint struct {
	method int32
	api    string
	val    Value
}

type run struct {
	ex *Extractor
	g  *callgraph.Graph
	// summaries holds, by method number, the summary of every method whose
	// SCC is finished (done). Inside a recursive SCC a call therefore
	// stays Dynamic until the whole component is summarised.
	summaries []Summary
	done      []bool
	sites     []*sinkSite
	raw       []rawEndpoint
}

// Extract analyses every method in the graph's dex, propagates summaries
// bottom-up over the call graph's SCC condensation, and returns the sink
// endpoints reachable from the app's entry points. exclude lists classes
// to drop (the paper's deep-link handler exclusion, §3.1.3); idx, when
// non-nil, attributes endpoints first-party-vs-SDK. The result is
// deterministic for a given dex.
func (e *Extractor) Extract(g *callgraph.Graph, exclude map[string]bool, idx *sdkindex.Index) []Endpoint {
	n := g.NumMethods()
	r := &run{ex: e, g: g, summaries: make([]Summary, n), done: make([]bool, n)}
	condense(g, func(scc []int32) {
		for _, id := range scc {
			m := &mach{r: r, id: id, code: g.Code(id), targets: g.Targets(id),
				arity: arity(g.Ref(id).Signature), cfg: e.cfg}
			r.summaries[id] = m.run()
		}
		for _, id := range scc {
			r.done[id] = true
		}
	})
	// Sink templates no caller ever grounded degrade to their own site:
	// the constant prefix is real, the parameter tail is not knowable.
	for _, s := range r.sites {
		if !s.grounded {
			r.raw = append(r.raw, rawEndpoint{method: s.method, api: s.api,
				val: Value{Prefix: s.val.Prefix, Tail: TailDynamic}})
		}
	}
	return r.finalize(exclude, idx)
}

func (r *run) finalize(exclude map[string]bool, idx *sdkindex.Index) []Endpoint {
	seen := make(map[Endpoint]bool, len(r.raw))
	var out []Endpoint
	for _, raw := range r.raw {
		ref := r.g.Ref(raw.method)
		if exclude[ref.Class] || !r.g.Reachable(raw.method) {
			continue
		}
		ep := classify(ref, raw)
		attribute(&ep, idx)
		if seen[ep] {
			continue
		}
		seen[ep] = true
		out = append(out, ep)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.API != b.API {
			return a.API < b.API
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.URL < b.URL
	})
	return out
}

func classify(ref dalvik.MethodRef, raw rawEndpoint) Endpoint {
	ep := Endpoint{Class: ref.Class, Method: ref.Name, API: raw.api}
	v := raw.val
	switch {
	case v.Tail == TailNone:
		ep.Kind = KindFull
		ep.URL = NormalizeURL(v.Prefix)
		ep.Host = HostOf(ep.URL)
	case v.Prefix != "":
		ep.Kind = KindPrefix
		ep.URL = v.Prefix
		if _, partial := HostPrefixOf(v.Prefix); !partial {
			ep.Host = HostOf(v.Prefix)
		}
	default:
		ep.Kind = KindDynamic
	}
	return ep
}

func attribute(ep *Endpoint, idx *sdkindex.Index) {
	if idx != nil {
		if sdk, ok := idx.Lookup(dalvik.PackageOf(ep.Class)); ok && !sdk.Excluded {
			ep.SDK = sdk.Name
			ep.SDKCategory = string(sdk.Category)
			return
		}
	}
	ep.FirstParty = true
}

// condense runs an iterative Tarjan over the graph's caller→callee edges
// and visits the SCCs callees-first (reverse topological order), which is
// exactly the order bottom-up summary propagation needs. Roots are taken in
// method-number (dex) order and edges in first-call order, so the visit
// order is deterministic. visit receives each component in discovery order
// and must not retain the slice.
func condense(g *callgraph.Graph, visit func(scc []int32)) {
	n := g.NumMethods()
	index := make([]int32, n) // discovery order + 1; 0 = unvisited
	low := make([]int32, n)
	onstack := make([]bool, n)
	var stack []int32
	next := int32(1)

	type frame struct {
		v int32
		i int
	}
	var frames []frame
	for root := int32(0); root < int32(n); root++ {
		if index[root] != 0 {
			continue
		}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onstack[root] = true
		frames = append(frames[:0], frame{v: root})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if edges := g.Callees(f.v); f.i < len(edges) {
				w := edges[f.i]
				f.i++
				if index[w] == 0 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onstack[w] = true
					frames = append(frames, frame{v: w})
				} else if onstack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				// The component is the top of the stack down to v, already
				// in discovery order.
				k := len(stack) - 1
				for stack[k] != v {
					k--
				}
				for _, w := range stack[k:] {
					onstack[w] = false
				}
				visit(stack[k:])
				stack = stack[:k]
			}
		}
	}
}

// absState is the abstract machine state entering an instruction: the
// symbolic operand stack, the last invoke result (which doubles as the
// live StringBuilder accumulator, mirroring the decompiler's lastVar),
// the pending new-instance type and whether the previous instruction was
// an invoke (move-result threading).
type absState struct {
	live        bool
	stack       []Value
	last        Value
	pendingNew  string
	afterInvoke bool
}

func (s absState) clone() absState {
	if s.stack != nil {
		s.stack = append([]Value(nil), s.stack...)
	}
	return s
}

func statesEqual(a, b absState) bool {
	if a.live != b.live || a.last != b.last ||
		a.pendingNew != b.pendingNew || a.afterInvoke != b.afterInvoke ||
		len(a.stack) != len(b.stack) {
		return false
	}
	for i := range a.stack {
		if a.stack[i] != b.stack[i] {
			return false
		}
	}
	return true
}

// joinStates merges two in-states at a control-flow join: stacks align at
// the top and truncate to the shorter height, values join pointwise.
func joinStates(a, b absState) absState {
	n := len(a.stack)
	if len(b.stack) < n {
		n = len(b.stack)
	}
	stack := make([]Value, n)
	for i := 0; i < n; i++ {
		stack[i] = Join(a.stack[len(a.stack)-n+i], b.stack[len(b.stack)-n+i])
	}
	pn := a.pendingNew
	if pn != b.pendingNew {
		pn = ""
	}
	return absState{live: true, stack: stack, last: Join(a.last, b.last),
		pendingNew: pn, afterInvoke: a.afterInvoke && b.afterInvoke}
}

// mach interprets one method body.
type mach struct {
	r       *run
	id      int32 // graph method number
	code    []dalvik.Instruction
	targets []int32 // resolved callee per pc, from the graph
	arity   int
	cfg     Config
	sum     Summary
	in      []absState
}

// run computes the fixpoint of per-pc in-states (phase A), then walks the
// reachable pcs once in ascending order with emission enabled (phase B).
// Splitting the phases means each sink site and call-site instantiation
// fires exactly once, on the final joined state — not on every
// intermediate state the worklist visits.
func (m *mach) run() Summary {
	m.sum = Summary{Ret: Dynamic()}
	if len(m.code) == 0 {
		return m.sum
	}
	straight := true
	for i := range m.code {
		if op := m.code[i].Op; op == dalvik.OpIfZ || op == dalvik.OpGoto {
			straight = false
			break
		}
	}
	if straight {
		// Branchless body (the common case): every pc has exactly one
		// predecessor, so the fixpoint is a single forward pass and phases
		// A and B collapse — no per-pc states, no clones, no worklist.
		st := absState{live: true, last: Dynamic()}
		for pc := 0; pc < len(m.code); pc++ {
			if m.code[pc].Op == dalvik.OpReturnValue {
				m.sum.Ret = st.last
			}
			var s1 int
			st, s1, _ = m.exec(st, pc, true)
			if s1 < 0 {
				break
			}
		}
		return m.sum
	}
	m.in = make([]absState, len(m.code))
	m.in[0] = absState{live: true, last: Dynamic()}
	work := []int{0}
	// The lattice is finite but the prefix component is wide; the step
	// budget is the bounded-widening backstop that keeps adversarial
	// (fuzzed) control flow from spinning.
	budget := len(m.code)*64 + 256
	for len(work) > 0 && budget > 0 {
		budget--
		pc := work[0]
		work = work[1:]
		out, s1, s2 := m.exec(m.in[pc].clone(), pc, false)
		for _, s := range [2]int{s1, s2} {
			if s < 0 || s >= len(m.code) || s == pc && m.code[pc].Op == dalvik.OpGoto {
				continue
			}
			if m.joinInto(s, out) {
				work = append(work, s)
			}
		}
	}
	var ret Value
	haveRet := false
	for pc := 0; pc < len(m.code); pc++ {
		if !m.in[pc].live {
			continue
		}
		st := m.in[pc].clone()
		if m.code[pc].Op == dalvik.OpReturnValue {
			if haveRet {
				ret = Join(ret, st.last)
			} else {
				ret, haveRet = st.last, true
			}
		}
		m.exec(st, pc, true)
	}
	if haveRet {
		m.sum.Ret = ret
	}
	return m.sum
}

func (m *mach) joinInto(pc int, out absState) bool {
	if !m.in[pc].live {
		m.in[pc] = out.clone()
		return true
	}
	joined := joinStates(m.in[pc], out)
	if statesEqual(m.in[pc], joined) {
		return false
	}
	m.in[pc] = joined
	return true
}

// exec interprets the instruction at pc over st (already cloned) and
// returns the out-state plus up to two successor pcs (-1 = none; scalars
// rather than a slice, which the fixpoint loop would otherwise allocate
// per instruction executed). With emitting set, sink hits and
// callee-template instantiations are recorded.
func (m *mach) exec(st absState, pc int, emitting bool) (absState, int, int) {
	ins := m.code[pc]
	s1, s2 := pc+1, -1
	wasInvoke := false
	switch ins.Op {
	case dalvik.OpConstString:
		m.push(&st, Const(ins.Str))
	case dalvik.OpConstInt:
		m.push(&st, Const(strconv.FormatInt(ins.Int, 10)))
	case dalvik.OpNewInstance:
		st.pendingNew = ins.Str
	case dalvik.OpInvokeVirtual, dalvik.OpInvokeStatic, dalvik.OpInvokeDirect, dalvik.OpInvokeInterface:
		wasInvoke = m.invoke(&st, ins, m.targets[pc], emitting)
	case dalvik.OpMoveResult:
		if st.afterInvoke {
			m.push(&st, st.last)
		} else {
			// A branched-to move-result has no adjacent invoke; the
			// decompiler renders the placeholder __result.
			st.last = Dynamic()
			m.push(&st, st.last)
		}
	case dalvik.OpIfZ:
		s2 = pc + int(ins.Int)
	case dalvik.OpGoto:
		s1 = pc + int(ins.Int)
	case dalvik.OpReturnVoid, dalvik.OpReturnValue, dalvik.OpThrow:
		s1 = -1
	}
	st.afterInvoke = wasInvoke
	return st, s1, s2
}

func (m *mach) push(st *absState, v Value) {
	if len(st.stack) >= m.cfg.MaxStack {
		copy(st.stack, st.stack[1:])
		st.stack[len(st.stack)-1] = v
		return
	}
	st.stack = append(st.stack, v)
}

// takeArgs consumes up to ar trailing operands (the most recent operand
// is the last argument) and fills missing leading slots with the
// enclosing method's own parameters — the decompiler renders those slots
// as a0, a1, … placeholders, which is exactly parameter passthrough.
func (m *mach) takeArgs(st *absState, ar int) []Value {
	args := make([]Value, ar)
	take := ar
	if len(st.stack) < take {
		take = len(st.stack)
	}
	base := len(st.stack) - take
	for i := 0; i < take; i++ {
		args[ar-take+i] = st.stack[base+i]
	}
	st.stack = st.stack[:base]
	for i := 0; i < ar-take; i++ {
		if i < m.arity {
			args[i] = Param(i)
		} else {
			args[i] = Dynamic()
		}
	}
	return args
}

// invoke interprets one invoke instruction, whose target resolves to
// method number callee (-1 when external), in place and reports whether a
// directly following move-result captures its result (constructors do
// not: the decompiler renders the placeholder __result there).
func (m *mach) invoke(st *absState, ins dalvik.Instruction, callee int32, emitting bool) bool {
	t := ins.Target
	ar := arity(t.Signature)
	if ins.Op == dalvik.OpInvokeDirect && t.Name == ctorName && st.pendingNew == t.Class {
		st.pendingNew = ""
		switch t.Class {
		case classStringBuilder:
			if ar >= 1 {
				args := m.takeArgs(st, ar)
				st.last = args[0]
			} else {
				st.last = Const("")
			}
		case classURL:
			args := m.takeArgs(st, ar)
			if emitting {
				m.emitSink(t, args)
			}
			st.last = Dynamic()
		default:
			// Constructor operands come from caller registers in the
			// builder idiom; leave the stack alone so a preceding URL
			// constant stays available for the call it actually feeds.
			st.last = Dynamic()
		}
		return false
	}
	switch {
	case t.Class == classStringBuilder && t.Name == "append":
		args := m.takeArgs(st, ar)
		if len(args) > 0 {
			st.last = Concat(st.last, args[0])
		}
		return true
	case t.Class == classStringBuilder && t.Name == "toString":
		m.takeArgs(st, ar)
		return true // the result is the accumulated text already in last
	case t.Class == classString && t.Name == "concat":
		args := m.takeArgs(st, ar)
		if len(args) > 0 {
			st.last = Concat(st.last, args[0])
		} else {
			st.last = Dynamic()
		}
		return true
	}
	args := m.takeArgs(st, ar)
	if emitting {
		if sinkSlots(m.r.g, t) != nil {
			m.emitSink(t, args)
		}
	}
	st.last = Dynamic()
	if callee >= 0 && m.r.done[callee] {
		sum := m.r.summaries[callee]
		st.last = substitute(sum.Ret, args)
		if emitting {
			m.instantiate(sum, args)
		}
	}
	return true
}

// substitute rewrites a callee-relative value into caller terms by
// binding the parameter tail to the actual argument.
func substitute(v Value, args []Value) Value {
	if v.Tail != TailParam {
		return v
	}
	if v.Param < 0 || v.Param >= len(args) {
		return Value{Prefix: v.Prefix, Tail: TailDynamic}
	}
	return Concat(Value{Prefix: v.Prefix}, args[v.Param])
}

// emitSink classifies the URL argument of a sink call: exact constants
// and dynamic values become endpoints immediately, parameter-dependent
// values become summary templates for callers to ground.
func (m *mach) emitSink(t *dalvik.MethodRef, args []Value) {
	slots := sinkSlots(m.r.g, t)
	var v Value
	chosen := false
	for _, s := range slots {
		if s < len(args) && args[s].Tail == TailNone {
			v, chosen = args[s], true
			break
		}
	}
	if !chosen {
		for _, s := range slots {
			if s < len(args) && args[s].Tail == TailParam {
				v, chosen = args[s], true
				break
			}
		}
	}
	if !chosen {
		if len(slots) == 0 || slots[0] >= len(args) {
			return
		}
		v = args[slots[0]]
	}
	if v.Tail == TailParam {
		if len(m.sum.Sinks) >= m.cfg.MaxTemplates {
			return
		}
		id := len(m.r.sites)
		m.r.sites = append(m.r.sites, &sinkSite{method: m.id, api: apiName(t), val: v})
		m.sum.Sinks = append(m.sum.Sinks, Template{Site: id, Val: v})
		return
	}
	m.r.raw = append(m.r.raw, rawEndpoint{method: m.id, api: apiName(t), val: v})
}

// instantiate grounds a callee's sink templates with the actual
// arguments at this call site. Values that resolve emit at the original
// (callee) site — that is where the request happens; values still
// depending on one of our own parameters re-template into this method's
// summary for the next caller up.
func (m *mach) instantiate(sum Summary, args []Value) {
	for _, t := range sum.Sinks {
		v := substitute(t.Val, args)
		if v.Tail == TailParam {
			if len(m.sum.Sinks) < m.cfg.MaxTemplates {
				m.sum.Sinks = append(m.sum.Sinks, Template{Site: t.Site, Val: v})
			}
			continue
		}
		site := m.r.sites[t.Site]
		site.grounded = true
		m.r.raw = append(m.r.raw, rawEndpoint{method: site.method, api: site.api, val: v})
	}
}
