package jsvm

import (
	"fmt"
	"sort"
	"strconv"
)

// This file is the stack VM executing the bytecode produced by
// compile.go. One frame per call lives on a shared value stack: parameter
// and local slots at the base, operands above. Closures capture heap
// cells; every other binding is a slot. The step budget is charged per
// instruction with a conversion factor, so budgets stay in the unit of the
// reference tree walker the tests keep (bytecode executes roughly as many
// instructions as the walker evaluates nodes, bounded by bcStepFactor).

// bcStepFactor converts an AST-node step budget to a bytecode
// instruction budget: effective limit = MaxSteps * bcStepFactor.
const bcStepFactor = 2

// cell is a heap-allocated binding captured by a closure. set mirrors the
// walker's execution-time declaration: an unset cell falls through to the
// next lookup candidate.
type cell struct {
	v   Value
	set bool
}

// unsetValue marks an undeclared slot.
var unsetValue = Value{kind: kindUnset}

// Execution status of a code segment.
const (
	stNormal uint8 = iota
	stReturn
	stBreak
	stContinue
)

// icEntry is one monomorphic inline-cache slot, private to a (VM,
// program) pair so programs stay immutable and shareable.
type icEntry struct {
	state uint8 // 0 empty, 1 global box, 2 global-object value, 3 own property, 4 inherited property
	gen   uint32
	ver   uint32
	hver  uint32 // holder version (state 4)
	obj   *Object
	box   *Value
	// holder is the prototype the inherited property was found on (state
	// 4); val may then be an accessor, called on every hit.
	holder *Object
	val    Value
}

// frame is one bytecode activation.
type frame struct {
	proto   *funcProto
	base    int32
	cells   []*cell // own cells (fresh per block entry)
	upcells []*cell // captured from the defining frame
	this    Value
	args    []Value // only populated when the function uses `arguments`
	ics     []icEntry
}

// callClosure invokes a bytecode closure with args originating outside
// the VM stack (Go callers, host builtins).
func (vm *VM) callClosure(o *Object, this Value, args []Value) (Value, error) {
	argStart := vm.sp
	vm.ensureStack(argStart + len(args))
	copy(vm.stack[argStart:], args)
	vm.sp = argStart + len(args)
	v, err := vm.callProtoAt(o, this, argStart, len(args))
	vm.sp = argStart
	return v, err
}

func (vm *VM) callProtoAt(o *Object, this Value, argStart, nargs int) (Value, error) {
	st, v, err := vm.execProto(o.proto, o.cells, this, argStart, nargs)
	if err != nil {
		return Undefined(), err
	}
	if st == stReturn {
		return v, nil
	}
	return Undefined(), nil
}

// execProto sets up a frame at argStart (whose nargs arguments are
// already on the stack) and runs the function body.
func (vm *VM) execProto(proto *funcProto, upcells []*cell, this Value, argStart, nargs int) (uint8, Value, error) {
	base := argStart
	np := proto.nparams
	var argsCopy []Value
	if proto.usesArgs && nargs > 0 {
		argsCopy = append([]Value(nil), vm.stack[base:base+nargs]...)
	}
	need := base + proto.nslots + proto.maxStack + 64
	vm.ensureStack(need)
	for i := nargs; i < np; i++ {
		vm.stack[base+i] = Undefined() // missing parameters are declared undefined
	}
	for i := np; i < proto.nslots; i++ {
		vm.stack[base+i] = unsetValue
	}
	vm.sp = base + proto.nslots
	var cells []*cell
	if proto.ncells > 0 {
		cells = make([]*cell, proto.ncells)
	}
	fr := frame{
		proto:   proto,
		base:    int32(base),
		cells:   cells,
		upcells: upcells,
		this:    this,
		args:    argsCopy,
		ics:     vm.icsFor(proto),
	}
	st, v, err := vm.runFrame(&fr, 0, int32(len(proto.code)))
	vm.sp = base
	return st, v, err
}

func (vm *VM) ensureStack(n int) {
	if n <= len(vm.stack) {
		return
	}
	grown := 2*len(vm.stack) + 64
	if grown < n {
		grown = n
	}
	ns := make([]Value, grown)
	copy(ns, vm.stack)
	vm.stack = ns
}

// icsFor returns the VM-local inline-cache slots for a proto, with a
// one-entry fast path for the repeated main/function alternation of a
// hot program.
func (vm *VM) icsFor(proto *funcProto) []icEntry {
	if vm.lastProto == proto {
		return vm.lastICs
	}
	var ics []icEntry
	if proto.nics > 0 {
		if vm.icTab == nil {
			vm.icTab = make(map[*funcProto][]icEntry)
		}
		ics = vm.icTab[proto]
		if ics == nil {
			ics = make([]icEntry, proto.nics)
			vm.icTab[proto] = ics
		}
	}
	vm.lastProto, vm.lastICs = proto, ics
	return ics
}

// ICStats reports inline-cache hits and misses accumulated by this VM.
func (vm *VM) ICStats() (hits, misses uint64) { return vm.icHits, vm.icMisses }

// flushICTelemetry mirrors IC traffic since the last flush into the
// package telemetry counters (deterministic: counts depend only on the
// executed programs).
func (vm *VM) flushICTelemetry() {
	if d := vm.icHits - vm.icFlushedH; d > 0 {
		icHitCounter.Load().Add(int64(d))
		vm.icFlushedH = vm.icHits
	}
	if d := vm.icMisses - vm.icFlushedM; d > 0 {
		icMissCounter.Load().Add(int64(d))
		vm.icFlushedM = vm.icMisses
	}
}

// runFrame executes code[pc:end] in fr. It returns how the segment
// completed; opTry recurses into it for body/catch/finally segments.
func (vm *VM) runFrame(fr *frame, pc, end int32) (uint8, Value, error) {
	proto := fr.proto
	code := proto.code
	lines := proto.lines
	limit := vm.MaxSteps
	if limit == 0 {
		limit = defaultMaxSteps
	}
	limit *= bcStepFactor
	base := fr.base
	for pc < end {
		vm.steps++
		if vm.steps > limit {
			stepBudgetCounter.Load().Inc()
			return stNormal, Undefined(), fmt.Errorf("jsvm: %w (line %d)", ErrStepBudget, lines[pc])
		}
		in := code[pc]
		pc++
		switch in.op {
		case opConst:
			vm.stack[vm.sp] = proto.consts[in.a]
			vm.sp++
		case opUndef:
			vm.stack[vm.sp] = Value{}
			vm.sp++
		case opNull:
			vm.stack[vm.sp] = Value{kind: KindNull}
			vm.sp++
		case opTrue:
			vm.stack[vm.sp] = Value{kind: KindBool, b: true}
			vm.sp++
		case opFalse:
			vm.stack[vm.sp] = Value{kind: KindBool}
			vm.sp++
		case opThis:
			vm.stack[vm.sp] = fr.this
			vm.sp++
		case opPop:
			vm.sp--
		case opDup:
			vm.stack[vm.sp] = vm.stack[vm.sp-1]
			vm.sp++
		case opGetLookup:
			v, err := vm.getLookup(fr, in, lines[pc-1])
			if err != nil {
				return stNormal, Undefined(), err
			}
			vm.stack[vm.sp] = v
			vm.sp++
		case opSetLookup:
			vm.setLookup(fr, in, vm.stack[vm.sp-1])
		case opTypeofLk:
			vm.stack[vm.sp] = vm.typeofLookup(fr, in)
			vm.sp++
		case opStoreSlot:
			vm.sp--
			vm.stack[base+in.a] = vm.stack[vm.sp]
		case opStoreCell:
			vm.sp--
			c := fr.cells[in.a]
			c.v = vm.stack[vm.sp]
			c.set = true
		case opDeclGlobal:
			vm.sp--
			vm.declareGlobal(proto.names[in.a], vm.stack[vm.sp])
		case opResetSlots:
			for i := in.a; i < in.b; i++ {
				vm.stack[base+i] = unsetValue
			}
		case opNewCells:
			for i := in.a; i < in.b; i++ {
				fr.cells[i] = &cell{}
			}
		case opParamToCell:
			c := fr.cells[in.b]
			c.v = vm.stack[base+in.a]
			c.set = true
		case opArguments:
			vm.stack[vm.sp] = ObjectValue(&Object{elems: fr.args, array: true})
			vm.sp++
		case opClosure:
			p := proto.protos[in.a]
			var cl []*cell
			if len(p.upvals) > 0 {
				cl = make([]*cell, len(p.upvals))
				for i, uv := range p.upvals {
					if uv.fromOwn {
						cl[i] = fr.cells[uv.idx]
					} else {
						cl[i] = fr.upcells[uv.idx]
					}
				}
			}
			vm.stack[vm.sp] = ObjectValue(&Object{proto: p, cells: cl, call: true, name: p.name})
			vm.sp++
		case opGetMember:
			vm.sp--
			obj := vm.stack[vm.sp]
			v, err := vm.getMemberIC(fr, obj, in, lines[pc-1])
			if err != nil {
				return stNormal, Undefined(), err
			}
			vm.stack[vm.sp] = v
			vm.sp++
		case opGetMemberDyn:
			vm.sp -= 2
			obj, idx := vm.stack[vm.sp], vm.stack[vm.sp+1]
			v, err := vm.getMemberDyn(obj, idx, lines[pc-1])
			if err != nil {
				return stNormal, Undefined(), err
			}
			vm.stack[vm.sp] = v
			vm.sp++
		case opGetMethod:
			obj := vm.stack[vm.sp-1]
			v, err := vm.getMemberIC(fr, obj, in, lines[pc-1])
			if err != nil {
				return stNormal, Undefined(), err
			}
			vm.stack[vm.sp] = v
			vm.sp++
		case opGetMethodDyn:
			obj, idx := vm.stack[vm.sp-2], vm.stack[vm.sp-1]
			v, err := vm.getMemberDyn(obj, idx, lines[pc-1])
			if err != nil {
				return stNormal, Undefined(), err
			}
			vm.stack[vm.sp-1] = v
		case opSetMember:
			vm.sp--
			obj := vm.stack[vm.sp]
			o := obj.Object()
			if o == nil {
				return stNormal, Undefined(), throwError("cannot set property of %s", obj.TypeOf())
			}
			o.Set(proto.names[in.a], vm.stack[vm.sp-1])
		case opSetMemberDyn:
			vm.sp -= 2
			obj, idx := vm.stack[vm.sp], vm.stack[vm.sp+1]
			o := obj.Object()
			if o == nil {
				return stNormal, Undefined(), throwError("cannot set property of %s", obj.TypeOf())
			}
			if o.IsArray() && idx.kind == KindNumber {
				o.SetIndex(int(idx.n), vm.stack[vm.sp-1])
			} else {
				o.Set(idx.StringValue(), vm.stack[vm.sp-1])
			}
		case opDelMember:
			vm.sp--
			if o := vm.stack[vm.sp].Object(); o != nil {
				o.Delete(proto.names[in.a])
			}
		case opCall:
			nargs := int(in.a)
			argStart := vm.sp - nargs
			fnV := vm.stack[argStart-1]
			recv := vm.stack[argStart-2]
			ret, err := vm.dispatchCall(fnV, recv, argStart, nargs, int(lines[pc-1]))
			if err != nil {
				return stNormal, Undefined(), err
			}
			vm.sp = argStart - 2
			vm.stack[vm.sp] = ret
			vm.sp++
		case opNew:
			nargs := int(in.a)
			argStart := vm.sp - nargs
			ctor := vm.stack[argStart-1]
			o := ctor.Object()
			if o == nil || !o.call {
				return stNormal, Undefined(), throwError("not a constructor")
			}
			inst := NewObject()
			ret, err := vm.dispatchCall(ctor, ObjectValue(inst), argStart, nargs, int(lines[pc-1]))
			if err != nil {
				return stNormal, Undefined(), err
			}
			if ret.Object() == nil {
				ret = ObjectValue(inst)
			}
			vm.sp = argStart - 1
			vm.stack[vm.sp] = ret
			vm.sp++
		case opReturn:
			vm.sp--
			return stReturn, vm.stack[vm.sp], nil
		case opReturnUndef:
			return stReturn, Undefined(), nil
		case opNewArray:
			n := int(in.a)
			vm.sp -= n
			elems := make([]Value, n)
			copy(elems, vm.stack[vm.sp:vm.sp+n])
			vm.stack[vm.sp] = ObjectValue(&Object{props: map[string]Value{}, elems: elems, array: true})
			vm.sp++
		case opNewObject:
			keys := proto.objLits[in.a]
			n := len(keys)
			vm.sp -= n
			o := NewObject()
			for i, k := range keys {
				o.Set(proto.names[k], vm.stack[vm.sp+i])
			}
			vm.stack[vm.sp] = ObjectValue(o)
			vm.sp++
		case opNot:
			vm.stack[vm.sp-1] = Bool(!vm.stack[vm.sp-1].Truthy())
		case opNeg:
			vm.stack[vm.sp-1] = Number(-vm.stack[vm.sp-1].NumberValue())
		case opToNum:
			vm.stack[vm.sp-1] = Number(vm.stack[vm.sp-1].NumberValue())
		case opBitNot:
			vm.stack[vm.sp-1] = Number(float64(^toInt32(vm.stack[vm.sp-1].NumberValue())))
		case opTypeofVal:
			vm.stack[vm.sp-1] = String(vm.stack[vm.sp-1].TypeOf())
		case opIncN:
			vm.stack[vm.sp-1] = Number(vm.stack[vm.sp-1].NumberValue() + float64(in.a))
		case opAdd:
			r, l := vm.stack[vm.sp-1], vm.stack[vm.sp-2]
			vm.sp--
			if l.kind == KindNumber && r.kind == KindNumber {
				vm.stack[vm.sp-1] = Value{kind: KindNumber, n: l.n + r.n}
			} else {
				v, err := binaryOp("+", l, r)
				if err != nil {
					return stNormal, Undefined(), err
				}
				vm.stack[vm.sp-1] = v
			}
		case opSub:
			r, l := vm.stack[vm.sp-1], vm.stack[vm.sp-2]
			vm.sp--
			vm.stack[vm.sp-1] = Number(l.NumberValue() - r.NumberValue())
		case opMul:
			r, l := vm.stack[vm.sp-1], vm.stack[vm.sp-2]
			vm.sp--
			vm.stack[vm.sp-1] = Number(l.NumberValue() * r.NumberValue())
		case opLt:
			r, l := vm.stack[vm.sp-1], vm.stack[vm.sp-2]
			vm.sp--
			if l.kind == KindNumber && r.kind == KindNumber {
				vm.stack[vm.sp-1] = Bool(l.n < r.n)
			} else {
				v, err := binaryOp("<", l, r)
				if err != nil {
					return stNormal, Undefined(), err
				}
				vm.stack[vm.sp-1] = v
			}
		case opGt:
			r, l := vm.stack[vm.sp-1], vm.stack[vm.sp-2]
			vm.sp--
			if l.kind == KindNumber && r.kind == KindNumber {
				vm.stack[vm.sp-1] = Bool(l.n > r.n)
			} else {
				v, err := binaryOp(">", l, r)
				if err != nil {
					return stNormal, Undefined(), err
				}
				vm.stack[vm.sp-1] = v
			}
		case opStrictEq:
			r, l := vm.stack[vm.sp-1], vm.stack[vm.sp-2]
			vm.sp--
			eq := looseEquals(l, r, true)
			if in.a == 1 {
				eq = !eq
			}
			vm.stack[vm.sp-1] = Bool(eq)
		case opBinary:
			r, l := vm.stack[vm.sp-1], vm.stack[vm.sp-2]
			vm.sp--
			v, err := binaryOp(proto.names[in.a], l, r)
			if err != nil {
				return stNormal, Undefined(), err
			}
			vm.stack[vm.sp-1] = v
		case opJump:
			pc = in.a
		case opJumpIfFalse:
			vm.sp--
			if !vm.stack[vm.sp].Truthy() {
				pc = in.a
			}
		case opJumpFalsy:
			if !vm.stack[vm.sp-1].Truthy() {
				pc = in.a
			}
		case opJumpTruthy:
			if vm.stack[vm.sp-1].Truthy() {
				pc = in.a
			}
		case opJumpNotNull:
			if !vm.stack[vm.sp-1].IsNullish() {
				pc = in.a
			}
		case opForPrep:
			vm.sp--
			obj := vm.stack[vm.sp]
			items := &Object{array: true}
			if o := obj.Object(); o != nil {
				if in.b == 1 {
					items.elems = append(items.elems, o.Elems()...)
				} else if o.IsArray() {
					for i := range o.Elems() {
						items.elems = append(items.elems, String(strconv.Itoa(i)))
					}
				} else {
					for _, k := range o.enumKeys() {
						items.elems = append(items.elems, String(k))
					}
				}
			} else if obj.Kind() == KindString && in.b == 1 {
				for _, r := range obj.StringValue() {
					items.elems = append(items.elems, String(string(r)))
				}
			}
			vm.stack[base+in.a] = ObjectValue(items)
			vm.stack[base+in.a+1] = Number(0)
		case opForNext:
			items := vm.stack[base+in.a].o.elems
			i := int(vm.stack[base+in.a+1].n)
			if i >= len(items) {
				pc = in.b
			} else {
				vm.stack[vm.sp] = items[i]
				vm.sp++
				vm.stack[base+in.a+1].n++
			}
		case opTry:
			var st uint8
			var v Value
			var err error
			d := &proto.trys[in.a]
			h := vm.sp
			st, v, err = vm.runFrame(fr, d.bodyStart, d.bodyEnd)
			vm.sp = h
			if err != nil {
				if jsErr, ok := err.(*Error); ok && d.catchStart >= 0 {
					vm.stack[vm.sp] = jsErr.Value
					vm.sp++
					st, v, err = vm.runFrame(fr, d.catchStart, d.catchEnd)
					vm.sp = h
				}
			}
			if d.finStart >= 0 {
				fst, fv, ferr := vm.runFrame(fr, d.finStart, d.finEnd)
				vm.sp = h
				if ferr != nil {
					return stNormal, Undefined(), ferr
				}
				if fst != stNormal {
					st, v, err = fst, fv, nil
				}
			}
			if err != nil {
				return stNormal, Undefined(), err
			}
			switch st {
			case stNormal:
				pc = d.end
			case stReturn:
				return stReturn, v, nil
			case stBreak:
				if d.breakPC >= 0 {
					pc = d.breakPC
				} else {
					return stBreak, Undefined(), nil
				}
			case stContinue:
				if d.continuePC >= 0 {
					pc = d.continuePC
				} else {
					return stContinue, Undefined(), nil
				}
			}
		case opThrow:
			vm.sp--
			return stNormal, Undefined(), &Error{
				Value: vm.stack[vm.sp],
				Where: fmt.Sprintf("line %d", lines[pc-1]),
			}
		case opBreak:
			return stBreak, Undefined(), nil
		case opContinue:
			return stContinue, Undefined(), nil
		case opStoreLast:
			vm.sp--
			vm.lastVal = vm.stack[vm.sp]
		case opBadAssign:
			return stNormal, Undefined(), throwError("invalid assignment target")
		default:
			return stNormal, Undefined(), fmt.Errorf("jsvm: line %d: unknown opcode %d", lines[pc-1], in.op)
		}
	}
	return stNormal, Undefined(), nil
}

// dispatchCall invokes the callable at the top of the stack layout
// [recv, fn, args...]: host functions get a fresh argument slice (they
// may retain it), and bytecode closures run in place on the stack.
func (vm *VM) dispatchCall(fnV, recv Value, argStart, nargs, ln int) (Value, error) {
	o := fnV.Object()
	if o == nil || !o.call {
		return Undefined(), throwError("line %d: %s is not a function", ln, fnV.StringValue())
	}
	if o.host != nil {
		args := make([]Value, nargs)
		copy(args, vm.stack[argStart:argStart+nargs])
		return o.host(Call{VM: vm, This: recv, Args: args})
	}
	np := o.proto.nparams
	if nargs < np {
		vm.ensureStack(argStart + np)
		for i := nargs; i < np; i++ {
			vm.stack[argStart+i] = Undefined()
		}
		vm.sp = argStart + np
	}
	return vm.callProtoAt(o, recv, argStart, nargs)
}

// getLookup resolves a named read through its candidate chain; the
// terminal global candidate is inline-cached when the site is monomorphic
// (in.b >= 0).
func (vm *VM) getLookup(fr *frame, in instr, ln int32) (Value, error) {
	refs := fr.proto.lookups[in.a]
	for _, r := range refs {
		switch r.kind {
		case refSlot:
			if v := vm.stack[fr.base+r.idx]; v.kind != kindUnset {
				return v, nil
			}
		case refCell:
			if c := fr.cells[r.idx]; c != nil && c.set {
				return c.v, nil
			}
		case refUpcell:
			if c := fr.upcells[r.idx]; c != nil && c.set {
				return c.v, nil
			}
		case refGlobal:
			name := fr.proto.names[r.idx]
			if in.b >= 0 && fr.ics != nil {
				e := &fr.ics[in.b]
				switch e.state {
				case 1:
					if e.gen == vm.globalGen {
						vm.icHits++
						return *e.box, nil
					}
				case 2:
					if e.gen == vm.globalGen && e.ver == vm.Global.version {
						vm.icHits++
						return e.val, nil
					}
				}
				vm.icMisses++
				if box, ok := vm.globals[name]; ok {
					*e = icEntry{state: 1, gen: vm.globalGen, box: box}
					return *box, nil
				}
				if vm.Global.Has(name) {
					v := vm.Global.Get(name)
					*e = icEntry{state: 2, gen: vm.globalGen, ver: vm.Global.version, val: v}
					return v, nil
				}
				return Undefined(), throwError("%s is not defined", name)
			}
			if box, ok := vm.globals[name]; ok {
				return *box, nil
			}
			if vm.Global.Has(name) {
				return vm.Global.Get(name), nil
			}
			return Undefined(), throwError("%s is not defined", name)
		}
	}
	return Undefined(), fmt.Errorf("jsvm: line %d: lookup chain without terminal", ln)
}

// setLookup writes through the candidate chain: the first live binding
// receives the value. The global terminal replicates assignTo exactly:
// a global-scope box is written, a name living only on the Global object
// silently loses the write (the walker writes a copied box), and an
// unknown name becomes an implicit global on the Global object.
func (vm *VM) setLookup(fr *frame, in instr, v Value) {
	refs := fr.proto.lookups[in.a]
	for _, r := range refs {
		switch r.kind {
		case refSlot:
			if vm.stack[fr.base+r.idx].kind != kindUnset {
				vm.stack[fr.base+r.idx] = v
				return
			}
		case refCell:
			if c := fr.cells[r.idx]; c != nil && c.set {
				c.v = v
				return
			}
		case refUpcell:
			if c := fr.upcells[r.idx]; c != nil && c.set {
				c.v = v
				return
			}
		case refGlobal:
			name := fr.proto.names[r.idx]
			if box, ok := vm.globals[name]; ok {
				*box = v
				return
			}
			if vm.Global.Has(name) {
				return // lost write, as the walker's copied global box
			}
			vm.Global.Set(name, v)
			return
		}
	}
}

// typeofLookup is the non-throwing lookup behind `typeof ident`.
func (vm *VM) typeofLookup(fr *frame, in instr) Value {
	refs := fr.proto.lookups[in.a]
	for _, r := range refs {
		switch r.kind {
		case refSlot:
			if v := vm.stack[fr.base+r.idx]; v.kind != kindUnset {
				return String(v.TypeOf())
			}
		case refCell:
			if c := fr.cells[r.idx]; c != nil && c.set {
				return String(c.v.TypeOf())
			}
		case refUpcell:
			if c := fr.upcells[r.idx]; c != nil && c.set {
				return String(c.v.TypeOf())
			}
		case refGlobal:
			name := fr.proto.names[r.idx]
			if box, ok := vm.globals[name]; ok {
				return String(box.TypeOf())
			}
			if vm.Global.Has(name) {
				return String(vm.Global.Get(name).TypeOf())
			}
			return String("undefined")
		}
	}
	return String("undefined")
}

// getMemberIC reads a static property with a monomorphic inline cache
// for properties of non-array objects found on the object itself or on
// its immediate prototype (the shape of a host-interface wrapper). The
// object's version covers own writes and relinks; the holder's version
// covers the prototype's. Fresh-closure members (array/object methods)
// are never cached, so their per-access identity matches the tree walker.
func (vm *VM) getMemberIC(fr *frame, obj Value, in instr, ln int32) (Value, error) {
	name := fr.proto.names[in.a]
	if o := obj.Object(); o != nil && !o.array && in.b >= 0 && fr.ics != nil {
		e := &fr.ics[in.b]
		if e.obj == o && e.ver == o.version && (e.state == 3 || e.state == 4 && e.hver == e.holder.version) {
			vm.icHits++
			return vm.propValue(e.val, obj)
		}
		vm.icMisses++
		if v, ok := o.props[name]; ok {
			*e = icEntry{state: 3, obj: o, ver: o.version, val: v}
			return vm.propValue(v, obj)
		}
		if p := o.prototype; p != nil {
			if v, ok := p.props[name]; ok {
				*e = icEntry{state: 4, obj: o, ver: o.version, holder: p, hver: p.version, val: v}
				return vm.propValue(v, obj)
			}
		}
	}
	return vm.getProp(obj, name, int(ln))
}

// getMemberDyn reads a computed member, mirroring getMember.
func (vm *VM) getMemberDyn(obj, idx Value, ln int32) (Value, error) {
	if o := obj.Object(); o != nil && o.IsArray() && idx.kind == KindNumber {
		return o.Index(int(idx.n)), nil
	}
	return vm.getProp(obj, idx.StringValue(), int(ln))
}

// sortKeys is referenced by opForPrep through Object.Keys; keep the
// import anchored.
var _ = sort.Strings
