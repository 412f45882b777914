package urlextract

import (
	"repro/internal/callgraph"
	"repro/internal/dalvik"
)

// TaintConfig names the method sets a boolean taint walk distinguishes:
// Sources taint their result, Derivers propagate taint from receiver or
// argument to result, and Sinks consume taint (no propagation through a
// sink's own callee edge — the finding belongs at the sink).
type TaintConfig struct {
	Sources  map[string]bool
	Derivers map[string]bool
	Sinks    map[string]bool
}

// ParamTaint runs an interprocedural boolean taint fixpoint over the
// graph's bytecode and returns, by graph method number, which parameters
// can carry source-derived data (nil for a method with none). The
// per-method walk mirrors the decompiler's rendering semantics exactly —
// linear scan, operand stack cleared at branches, constructor operands left
// for the call they feed, missing leading invoke arguments standing in for
// the enclosing method's own parameters — so lint rules that match on the
// decompiled source see the same flows the bytecode carries.
func ParamTaint(g *callgraph.Graph, cfg TaintConfig) [][]bool {
	n := g.NumMethods()
	taint := make([][]bool, n)
	queued := make([]bool, n)
	work := make([]int32, n)
	for i := range work {
		work[i] = int32(i)
		queued[i] = true
	}
	push := func(id int32) {
		if !queued[id] {
			queued[id] = true
			work = append(work, id)
		}
	}
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		queued[id] = false
		taintWalk(g, id, taint, cfg, push)
	}
	return taint
}

// taintWalk scans method id linearly, tracking taint per operand-stack
// slot plus the last-invoke-result variable, and records interprocedural
// edges: a tainted argument at slot k taints the resolved callee's k-th
// parameter (enqueueing the callee when its set grows).
func taintWalk(g *callgraph.Graph, id int32, taint [][]bool, cfg TaintConfig, push func(int32)) {
	params := taint[id]
	targets := g.Targets(id)
	var stack, args []bool
	lastTainted := false
	afterInvoke := false
	resTaint := false
	pendingNew := ""
	for pc, ins := range g.Code(id) {
		wasInvoke := false
		switch ins.Op {
		case dalvik.OpConstString, dalvik.OpConstInt:
			stack = append(stack, false)
		case dalvik.OpNewInstance:
			pendingNew = ins.Str
		case dalvik.OpInvokeVirtual, dalvik.OpInvokeStatic, dalvik.OpInvokeDirect, dalvik.OpInvokeInterface:
			wasInvoke = true
			t := ins.Target
			ar := arity(t.Signature)
			if ins.Op == dalvik.OpInvokeDirect && t.Name == ctorName && pendingNew == t.Class {
				// Constructor placeholder idiom: operands stay put, the
				// fresh object (which becomes the last-result variable)
				// is untainted.
				pendingNew = ""
				resTaint = false
				lastTainted = false
				break
			}
			take := ar
			if len(stack) < take {
				take = len(stack)
			}
			args = append(args[:0], make([]bool, ar)...)
			base := len(stack) - take
			for i := 0; i < take; i++ {
				args[ar-take+i] = stack[base+i]
			}
			stack = stack[:base]
			for i := 0; i < ar-take && i < len(params); i++ {
				args[i] = params[i]
			}
			switch {
			case cfg.Sources[t.Name]:
				resTaint = true
			case cfg.Derivers[t.Name]:
				recv := ins.Op != dalvik.OpInvokeStatic && lastTainted
				resTaint = recv
				for _, a := range args {
					resTaint = resTaint || a
				}
			default:
				resTaint = false
			}
			if callee := targets[pc]; callee >= 0 && !cfg.Sinks[t.Name] {
				calleeAr := arity(g.Ref(callee).Signature)
				for k, a := range args {
					if !a || k >= calleeAr {
						continue
					}
					if taint[callee] == nil {
						taint[callee] = make([]bool, calleeAr)
					}
					if !taint[callee][k] {
						taint[callee][k] = true
						push(callee)
					}
				}
			}
		case dalvik.OpMoveResult:
			if afterInvoke {
				stack = append(stack, resTaint)
				lastTainted = resTaint
			} else {
				stack = append(stack, false)
				lastTainted = false
			}
		case dalvik.OpIfZ, dalvik.OpGoto, dalvik.OpReturnVoid, dalvik.OpReturnValue, dalvik.OpThrow:
			stack = stack[:0]
		}
		afterInvoke = wasInvoke
	}
}
