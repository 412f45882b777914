package callgraph_test

import (
	"encoding/binary"
	"hash/adler32"
	"reflect"
	"testing"
	"time"

	"repro/internal/callgraph"
	"repro/internal/dalvik"
	"repro/internal/urlextract"
)

// FuzzGraph feeds decoded sdex files to every consumer of the call graph:
// Build, AnalyzeUsage, urlextract's Extract and ParamTaint. The harness
// rewrites the adler32 header of the mutated bytes, as dalvik's FuzzDecode
// does, so mutations reach the classes and method bodies. For every file
// Decode accepts, no stage may panic, every stage must return, a second
// Build must give the same tables and results, and the numbered
// reachability and per-invoke resolution must match the MethodRef-keyed
// oracle below.
func FuzzGraph(f *testing.F) {
	ex := urlextract.New(urlextract.Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		if len(data) >= 10 {
			binary.LittleEndian.PutUint32(data[6:10], adler32.Checksum(data[10:]))
		}
		dex, err := dalvik.Decode(data)
		if err != nil {
			return // dalvik's FuzzDecode checks the errors
		}
		var g1, g2 *callgraph.Graph
		var out1, out2 outputs
		done := make(chan struct{})
		go func() {
			defer close(done)
			g1 = callgraph.Build(dex)
			out1 = runStages(g1, ex)
			g2 = callgraph.Build(dex)
			out2 = runStages(g2, ex)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the call-graph stages did not return within 10s")
		}
		if !reflect.DeepEqual(tablesOf(g1), tablesOf(g2)) || !reflect.DeepEqual(out1, out2) {
			t.Fatal("a second Build gave different tables or results")
		}
		checkOracle(t, dex, g1)
	})
}

type outputs struct {
	usage     *callgraph.Usage
	endpoints []urlextract.Endpoint
	taint     [][]bool
}

func runStages(g *callgraph.Graph, ex *urlextract.Extractor) outputs {
	return outputs{
		usage:     g.AnalyzeUsage(nil),
		endpoints: ex.Extract(g, nil, nil),
		taint: urlextract.ParamTaint(g, urlextract.TaintConfig{
			Sources:  map[string]bool{"getIntent": true},
			Derivers: map[string]bool{"getDataString": true, "toString": true},
			Sinks:    map[string]bool{"loadUrl": true},
		}),
	}
}

// tables is everything Build numbers and resolves, read back through the
// exported accessors.
type tables struct {
	refs      []dalvik.MethodRef
	targets   [][]int32
	callees   [][]int32
	reachable []bool
}

func tablesOf(g *callgraph.Graph) tables {
	var tb tables
	for i := int32(0); i < int32(g.NumMethods()); i++ {
		tb.refs = append(tb.refs, g.Ref(i))
		tb.targets = append(tb.targets, g.Targets(i))
		tb.callees = append(tb.callees, g.Callees(i))
		tb.reachable = append(tb.reachable, g.Reachable(i))
	}
	return tb
}

// oracle resolves and traverses the way the graph did before it numbered
// its methods: by MethodRef, through maps, with the superclass walk bounded
// at Build's 1,000 steps.
type oracle struct {
	classes map[string]*dalvik.Class
	defined map[dalvik.MethodRef]*dalvik.Method
}

func (o *oracle) resolve(ref dalvik.MethodRef) (dalvik.MethodRef, bool) {
	name := ref.Class
	for steps := 0; name != "" && steps < 1000; steps++ {
		cand := dalvik.MethodRef{Class: name, Name: ref.Name, Signature: ref.Signature}
		if o.defined[cand] != nil {
			return cand, true
		}
		c := o.classes[name]
		if c == nil {
			break
		}
		name = c.SuperName
	}
	return dalvik.MethodRef{}, false
}

func (o *oracle) reachable(roots []dalvik.MethodRef) map[dalvik.MethodRef]bool {
	seen := make(map[dalvik.MethodRef]bool)
	var stack []dalvik.MethodRef
	push := func(r dalvik.MethodRef) {
		if res, ok := o.resolve(r); ok && !seen[res] {
			seen[res] = true
			stack = append(stack, res)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ins := range o.defined[cur].Code {
			if ins.Op.IsInvoke() {
				push(*ins.Target)
			}
		}
	}
	return seen
}

// checkOracle asserts that g numbers every method of dex in dex order and
// that its per-invoke targets, callee lists and reachability agree with
// the oracle's.
func checkOracle(t *testing.T, dex *dalvik.File, g *callgraph.Graph) {
	t.Helper()
	o := &oracle{
		classes: make(map[string]*dalvik.Class),
		defined: make(map[dalvik.MethodRef]*dalvik.Method),
	}
	var order []dalvik.MethodRef
	for ci := range dex.Classes {
		c := &dex.Classes[ci]
		o.classes[c.Name] = c
		for mi := range c.Methods {
			ref := c.Methods[mi].Ref(c.Name)
			o.defined[ref] = &c.Methods[mi]
			order = append(order, ref)
		}
	}
	if g.NumMethods() != len(order) {
		t.Fatalf("NumMethods = %d, want %d", g.NumMethods(), len(order))
	}
	reach := o.reachable(g.EntryPoints())
	for i := int32(0); i < int32(len(order)); i++ {
		ref := g.Ref(i)
		if ref != order[i] {
			t.Fatalf("method %d = %v, want %v", i, ref, order[i])
		}
		if g.Reachable(i) != reach[ref] {
			t.Fatalf("Reachable(%v) = %v, oracle %v", ref, g.Reachable(i), reach[ref])
		}
		code, targets := g.Code(i), g.Targets(i)
		if len(targets) != len(code) {
			t.Fatalf("%v: %d targets for %d instructions", ref, len(targets), len(code))
		}
		var callees []int32
		seen := make(map[int32]bool)
		for pc, ins := range code {
			res, ok := dalvik.MethodRef{}, false
			if ins.Op.IsInvoke() {
				res, ok = o.resolve(*ins.Target)
			}
			switch got := targets[pc]; {
			case !ok && got != -1:
				t.Fatalf("%v pc %d: target %d, oracle external", ref, pc, got)
			case ok && (got < 0 || g.Ref(got) != res):
				t.Fatalf("%v pc %d: target %d, oracle %v", ref, pc, got, res)
			case ok && !seen[got]:
				seen[got] = true
				callees = append(callees, got)
			}
		}
		if got := g.Callees(i); len(got) != len(callees) || len(got) > 0 && !reflect.DeepEqual(got, callees) {
			t.Fatalf("Callees(%v) = %v, want %v", ref, got, callees)
		}
	}
}
