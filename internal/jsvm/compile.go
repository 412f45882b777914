package jsvm

import "fmt"

// This file lowers the parsed AST into compact bytecode executed by the
// stack VM in vm.go. The compiler resolves local and function-scope
// variables to frame slot indices (or heap cells when a nested function
// captures them), interns constants and property names, and allocates
// monomorphic inline-cache sites for global and static property lookups.
// Names it cannot resolve statically — top-level declarations and
// implicit globals — fall back to named lookup against the global scope,
// preserving the tree walker's observable semantics exactly (including
// its execution-time declaration quirks; see the lookup-chain comments).

// op is a bytecode opcode.
type op uint8

// Opcodes. Operands a and b are documented per op.
const (
	opConst        op = iota // push consts[a]
	opUndef                  // push undefined
	opNull                   // push null
	opTrue                   // push true
	opFalse                  // push false
	opThis                   // push the frame's this
	opPop                    // pop
	opDup                    // push a copy of the top of stack
	opGetLookup              // a=lookup idx, b=ic idx (-1 none); push resolved value
	opSetLookup              // a=lookup idx; peek value, write first live binding
	opTypeofLk               // a=lookup idx; push typeof without throwing
	opStoreSlot              // a=slot; pop into slot (marks it declared)
	opStoreCell              // a=own-cell idx; pop into cell (marks it set)
	opDeclGlobal             // a=name idx; pop, declare in the global scope
	opResetSlots             // slots [a,b) become unset (block entry)
	opNewCells               // own cells [a,b) become fresh cells (block entry)
	opParamToCell            // move slot a into own cell b (captured parameter)
	opArguments              // push the arguments array for this frame
	opClosure                // a=proto idx; push a closure over protos[a]
	opGetMember              // a=name idx, b=ic idx; pop obj, push obj.name
	opGetMemberDyn           // pop idx, obj; push obj[idx]
	opSetMember              // a=name idx; stack [val,obj] -> [val]
	opSetMemberDyn           // stack [val,obj,idx] -> [val]
	opDelMember              // a=name idx; pop obj, delete obj.name
	opGetMethod              // a=name idx, b=ic idx; stack [obj] -> [obj, obj.name]
	opGetMethodDyn           // stack [obj,idx] -> [obj, obj[idx]]
	opCall                   // a=nargs; stack [recv,fn,args...] -> [ret]
	opNew                    // a=nargs; stack [ctor,args...] -> [instance]
	opReturn                 // pop; return it from the function
	opReturnUndef            // return undefined from the function
	opNewArray               // a=n; pop n elements, push an array
	opNewObject              // a=objLits idx; pop len(keys) values, push object
	opNot                    // pop v, push !v
	opNeg                    // pop v, push -v
	opToNum                  // pop v, push ToNumber(v)
	opBitNot                 // pop v, push ~v
	opTypeofVal              // pop v, push typeof v
	opIncN                   // pop v, push Number(ToNumber(v)+a)
	opAdd                    // pop r,l push l+r
	opSub                    // pop r,l push l-r
	opMul                    // pop r,l push l*r
	opLt                     // pop r,l push l<r
	opGt                     // pop r,l push l>r
	opStrictEq               // pop r,l push l===r (a=1: !==)
	opBinary                 // a=name idx of the operator; pop r,l push l op r
	opJump                   // pc = a
	opJumpIfFalse            // pop; if falsy pc = a
	opJumpFalsy              // peek; if falsy pc = a
	opJumpTruthy             // peek; if truthy pc = a
	opJumpNotNull            // peek; if not nullish pc = a
	opForPrep                // pop obj; slots a,a+1 = iteration items, index (b=1: for-of)
	opForNext                // push next item, or pc = b when exhausted
	opTry                    // a=trys idx; run body/catch/finally segments
	opThrow                  // pop v; throw it
	opBreak                  // propagate break out of this segment
	opContinue               // propagate continue out of this segment
	opStoreLast              // pop into the program's last-value register
	opBadAssign              // throw "invalid assignment target"
)

// instr is one instruction. Lines are kept in a parallel array on the
// proto (only consulted for error reporting).
type instr struct {
	op   op
	a, b int32
}

// ref is one candidate binding for a named lookup. Because the tree
// walker declares variables at execution time (a read before the
// declaration executes falls through to an outer scope), a lookup is a
// chain of candidates walked until one is live; the terminal candidate is
// always the named global lookup.
type ref struct {
	kind uint8
	idx  int32
}

const (
	refSlot   uint8 = iota // frame slot idx (live when not unset)
	refCell                // own cell idx (live when set)
	refUpcell              // captured cell idx (live when set)
	refGlobal              // terminal: names[idx] against the global scope
)

// upvalRef describes where closure cell i comes from when the closure is
// created: the creating frame's own cells or its captured cells.
type upvalRef struct {
	fromOwn bool
	idx     int32
}

// tryDesc is the layout of one try statement's segments. breakPC and
// continuePC are the innermost enclosing loop's targets when that loop is
// in the same segment as the try; -1 propagates the signal to the next
// enclosing segment.
type tryDesc struct {
	bodyStart, bodyEnd   int32
	catchStart, catchEnd int32 // catchStart<0: no catch clause
	finStart, finEnd     int32 // finStart<0: no finally clause
	end                  int32
	breakPC, continuePC  int32
}

// funcProto is one compiled function: immutable after compilation and
// shared by every closure over it, across VMs and goroutines.
type funcProto struct {
	name     string
	nparams  int
	nslots   int
	ncells   int
	maxStack int
	usesArgs bool
	code     []instr
	lines    []int32
	consts   []Value
	names    []string
	protos   []*funcProto
	upvals   []upvalRef
	lookups  [][]ref
	trys     []tryDesc
	objLits  [][]int32
	nics     int
}

// binding is a compile-time variable binding.
type binding struct {
	name string
	ref  ref
	fn   *cfunc
}

// cscope is a compile-time lexical scope (function top scope or block).
type cscope struct {
	parent   *cscope
	fn       *cfunc
	bindings []*binding
}

func (sc *cscope) find(name string) *binding {
	for _, b := range sc.bindings {
		if b.name == name {
			return b
		}
	}
	return nil
}

// loopCtx tracks a loop being compiled for break/continue patching.
type loopCtx struct {
	segDepth   int
	contTarget int32
	breakSites []int
	contSites  []int
	tryDescs   []int // trys needing breakPC/continuePC patched to this loop
}

// cfunc is the per-function compiler state.
type cfunc struct {
	parent   *cfunc
	proto    *funcProto
	scope    *cscope // current scope
	top      *cscope // function top scope
	global   bool    // main program: top-scope declarations are dynamic globals
	captured map[string]bool
	upvalIdx map[*binding]int32
	constIdx map[constKey]int32
	nameIdx  map[string]int32
	loops    []*loopCtx
	segDepth int
	nslots   int
	ncells   int
	cur, max int
}

type constKey struct {
	k Kind
	n float64
	s string
}

type compileError struct{ err error }

// compileProgram lowers a parsed program to bytecode. Errors indicate an
// AST shape the compiler does not handle.
func compileProgram(p *Program) (mp *funcProto, err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(compileError)
			if !ok {
				panic(r)
			}
			mp, err = nil, ce.err
		}
	}()
	var body []node
	for i := range p.decls {
		body = append(body, p.decls[i])
	}
	body = append(body, p.stmts...)

	f := newCFunc(nil, "(program)")
	f.global = true
	f.captured = capturedNames(body)
	// Hoisted top-level function declarations, then statements in source
	// order, mirroring RunProgram's tree-walking order. Each top-level
	// statement updates the last-value register (non-expression statements
	// reset it to undefined, as the walker's completion values do).
	for i := range p.decls {
		fd := &p.decls[i]
		idx := f.compileFuncLit(fd.fn)
		f.emit(opClosure, idx, 0, fd.line(), 1)
		f.emit(opDeclGlobal, f.nameOf(fd.fn.name), 0, fd.line(), -1)
	}
	for _, st := range p.stmts {
		if es, ok := st.(exprStmt); ok {
			f.expr(es.expr)
			f.emit(opStoreLast, 0, 0, es.line(), -1)
			continue
		}
		f.stmt(st)
		f.emit(opUndef, 0, 0, st.line(), 1)
		f.emit(opStoreLast, 0, 0, st.line(), -1)
	}
	f.finish()
	return f.proto, nil
}

func newCFunc(parent *cfunc, name string) *cfunc {
	f := &cfunc{
		parent:   parent,
		proto:    &funcProto{name: name},
		upvalIdx: map[*binding]int32{},
		constIdx: map[constKey]int32{},
		nameIdx:  map[string]int32{},
	}
	f.top = &cscope{fn: f}
	f.scope = f.top
	return f
}

func (f *cfunc) fail(format string, args ...any) {
	panic(compileError{fmt.Errorf("jsvm: compile: "+format, args...)})
}

func (f *cfunc) finish() {
	f.proto.nslots = f.nslots
	f.proto.ncells = f.ncells
	f.proto.maxStack = f.max
}

// emit appends an instruction; delta is its net operand-stack effect,
// tracked to size the frame's operand area.
func (f *cfunc) emit(o op, a, b int32, ln int, delta int) int {
	f.proto.code = append(f.proto.code, instr{op: o, a: a, b: b})
	f.proto.lines = append(f.proto.lines, int32(ln))
	f.adjust(delta)
	return len(f.proto.code) - 1
}

func (f *cfunc) adjust(delta int) {
	f.cur += delta
	if f.cur < 0 {
		f.cur = 0
	}
	if f.cur > f.max {
		f.max = f.cur
	}
}

func (f *cfunc) pc() int32 { return int32(len(f.proto.code)) }

func (f *cfunc) patch(site int, target int32) { f.proto.code[site].a = target }

func (f *cfunc) nameOf(name string) int32 {
	if i, ok := f.nameIdx[name]; ok {
		return i
	}
	i := int32(len(f.proto.names))
	f.proto.names = append(f.proto.names, name)
	f.nameIdx[name] = i
	return i
}

func (f *cfunc) constOf(v Value, ln int) {
	key := constKey{k: v.kind, n: v.n, s: v.s}
	i, ok := f.constIdx[key]
	if !ok {
		i = int32(len(f.proto.consts))
		f.proto.consts = append(f.proto.consts, v)
		f.constIdx[key] = i
	}
	f.emit(opConst, i, 0, ln, 1)
}

func (f *cfunc) allocSlot() int32 {
	i := f.nslots
	f.nslots++
	return int32(i)
}

func (f *cfunc) allocCell() int32 {
	i := f.ncells
	f.ncells++
	return int32(i)
}

// bind registers name in the current scope (dedup within the scope: the
// walker's repeated declares share one map entry) and returns its binding.
func (f *cfunc) bind(name string) *binding {
	if b := f.scope.find(name); b != nil {
		return b
	}
	var r ref
	if f.captured[name] {
		r = ref{kind: refCell, idx: f.allocCell()}
	} else {
		r = ref{kind: refSlot, idx: f.allocSlot()}
	}
	b := &binding{name: name, ref: r, fn: f}
	f.scope.bindings = append(f.scope.bindings, b)
	return b
}

// upvalFor threads a binding owned by an enclosing function into this
// function's captured cells, returning the upcell index.
func (f *cfunc) upvalFor(b *binding) int32 {
	if i, ok := f.upvalIdx[b]; ok {
		return i
	}
	var src upvalRef
	if b.fn == f.parent {
		if b.ref.kind != refCell {
			f.fail("captured binding %q is not a cell", b.name)
		}
		src = upvalRef{fromOwn: true, idx: b.ref.idx}
	} else {
		src = upvalRef{fromOwn: false, idx: f.parent.upvalFor(b)}
	}
	i := int32(len(f.proto.upvals))
	f.proto.upvals = append(f.proto.upvals, src)
	f.upvalIdx[b] = i
	return i
}

// lookupOf builds the candidate chain for a named access at the current
// scope. The chain lists every visible binding of the name from innermost
// out (execution-time declaration means an unset inner binding falls
// through to an outer one), terminated by the named global lookup. An
// inline-cache index is allocated only for pure global sites (single
// terminal candidate): those are the monomorphic, perf-relevant lookups.
func (f *cfunc) lookupOf(name string) (lookup, ic int32) {
	var refs []ref
	for sc := f.scope; sc != nil; sc = sc.parent {
		if b := sc.find(name); b != nil {
			if b.fn == f {
				refs = append(refs, b.ref)
			} else {
				refs = append(refs, ref{kind: refUpcell, idx: f.upvalFor(b)})
			}
		}
	}
	refs = append(refs, ref{kind: refGlobal, idx: f.nameOf(name)})
	lookup = int32(len(f.proto.lookups))
	f.proto.lookups = append(f.proto.lookups, refs)
	ic = -1
	if len(refs) == 1 {
		ic = int32(f.proto.nics)
		f.proto.nics++
	}
	return lookup, ic
}

// icSite allocates a property inline-cache slot.
func (f *cfunc) icSite() int32 {
	i := int32(f.proto.nics)
	f.proto.nics++
	return i
}

// scanDecls collects the var/function names a statement list declares
// directly into the current scope, recursing through statements that do
// not introduce a scope of their own (if branches, while/try bodies) and
// stopping at those that do (blocks, for loops, nested functions) —
// mirroring exactly which scope the walker's execution-time declare hits.
func scanDecls(stmts []node, names *[]string, seen map[string]bool) {
	for _, st := range stmts {
		scanDeclStmt(st, names, seen)
	}
}

func scanDeclStmt(st node, names *[]string, seen map[string]bool) {
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			*names = append(*names, n)
		}
	}
	switch s := st.(type) {
	case varDecl:
		for _, n := range s.names {
			add(n)
		}
	case funcDecl:
		add(s.fn.name)
	case ifStmt:
		scanDeclStmt(s.then, names, seen)
		if s.alt != nil {
			scanDeclStmt(s.alt, names, seen)
		}
	case whileStmt:
		scanDeclStmt(s.body, names, seen)
	case tryStmt:
		scanDeclStmt(s.body, names, seen)
		if s.finally != nil {
			scanDeclStmt(s.finally, names, seen)
		}
	}
}

// capturedNames returns every identifier referenced inside a function
// nested anywhere below body. Bindings of these names become heap cells
// (conservatively: a same-named local in the nested function also counts,
// which only costs a needless cell).
func capturedNames(body []node) map[string]bool {
	out := map[string]bool{}
	var walk func(n node, inFn bool)
	walk = func(n node, inFn bool) {
		switch x := n.(type) {
		case identExpr:
			if inFn {
				out[x.name] = true
			}
		case funcLit:
			for _, st := range x.body {
				walk(st, true)
			}
		case funcDecl:
			for _, st := range x.fn.body {
				walk(st, true)
			}
		default:
			eachChild(n, func(c node) { walk(c, inFn) })
		}
	}
	for _, st := range body {
		walk(st, false)
	}
	return out
}

// eachChild visits the direct child nodes of n.
func eachChild(n node, visit func(node)) {
	opt := func(c node) {
		if c != nil {
			visit(c)
		}
	}
	switch x := n.(type) {
	case arrayLit:
		for _, e := range x.elems {
			visit(e)
		}
	case objectLit:
		for _, p := range x.props {
			visit(p.val)
		}
	case memberExpr:
		visit(x.obj)
		opt(x.computed)
	case callExpr:
		visit(x.callee)
		for _, a := range x.args {
			visit(a)
		}
	case newExpr:
		visit(x.callee)
		for _, a := range x.args {
			visit(a)
		}
	case unaryExpr:
		visit(x.expr)
	case updateExpr:
		visit(x.target)
	case binaryExpr:
		visit(x.left)
		visit(x.right)
	case logicalExpr:
		visit(x.left)
		visit(x.right)
	case condExpr:
		visit(x.cond)
		visit(x.then)
		visit(x.alt)
	case assignExpr:
		visit(x.target)
		visit(x.value)
	case seqExpr:
		for _, e := range x.exprs {
			visit(e)
		}
	case varDecl:
		for _, v := range x.values {
			opt(v)
		}
	case exprStmt:
		visit(x.expr)
	case blockStmt:
		for _, s := range x.body {
			visit(s)
		}
	case ifStmt:
		visit(x.cond)
		visit(x.then)
		opt(x.alt)
	case forStmt:
		opt(x.init)
		opt(x.cond)
		opt(x.post)
		visit(x.body)
	case forInStmt:
		visit(x.obj)
		visit(x.body)
	case whileStmt:
		visit(x.cond)
		visit(x.body)
	case returnStmt:
		opt(x.value)
	case throwStmt:
		visit(x.value)
	case tryStmt:
		visit(x.body)
		opt(x.catchBody)
		opt(x.finally)
	}
}

// compileFuncLit compiles a nested function literal and returns its index
// in the current proto's protos table.
func (f *cfunc) compileFuncLit(fl *funcLit) int32 {
	child := newCFunc(f, fl.name)
	child.top.parent = f.scope
	child.scope = child.top
	child.proto.nparams = len(fl.params)
	child.proto.usesArgs = fl.usesArgs
	child.captured = capturedNames(fl.body)

	// Parameter landing slots are 0..nparams-1; captured parameters get a
	// cell and a prologue move out of the landing slot.
	child.nslots = len(fl.params)
	type pcell struct{ slot, cell int32 }
	var pcells []pcell
	for i, p := range fl.params {
		if b := child.scope.find(p); b != nil {
			continue // duplicate parameter name: first binding wins
		}
		var r ref
		if child.captured[p] {
			r = ref{kind: refCell, idx: child.allocCell()}
			pcells = append(pcells, pcell{slot: int32(i), cell: r.idx})
		} else {
			r = ref{kind: refSlot, idx: int32(i)}
		}
		child.scope.bindings = append(child.scope.bindings,
			&binding{name: p, ref: r, fn: child})
	}
	// Function-scope declarations (the walker declares vars directly into
	// the call scope; blocks get their own scopes below).
	var declNames []string
	seen := map[string]bool{}
	scanDecls(fl.body, &declNames, seen)
	for _, n := range declNames {
		child.bind(n)
	}
	var argsBind *binding
	if fl.usesArgs {
		argsBind = child.bind("arguments")
	}

	// Prologue: function-level cells, captured parameters, arguments,
	// hoisted function declarations.
	if child.ncells > 0 {
		child.emit(opNewCells, 0, int32(child.ncells), fl.line(), 0)
	}
	for _, pc := range pcells {
		child.emit(opParamToCell, pc.slot, pc.cell, fl.line(), 0)
	}
	if argsBind != nil {
		child.emit(opArguments, 0, 0, fl.line(), 1)
		child.emitStore(argsBind, fl.line())
	}
	for _, st := range fl.body {
		if fd, ok := st.(funcDecl); ok {
			idx := child.compileFuncLit(fd.fn)
			child.emit(opClosure, idx, 0, fd.line(), 1)
			child.emitStore(child.scope.find(fd.fn.name), fd.line())
		}
	}
	for _, st := range fl.body {
		if _, ok := st.(funcDecl); ok {
			continue
		}
		child.stmt(st)
	}
	child.finish()

	idx := int32(len(f.proto.protos))
	f.proto.protos = append(f.proto.protos, child.proto)
	return idx
}

// emitStore writes the top of stack into a binding, marking it declared.
func (f *cfunc) emitStore(b *binding, ln int) {
	if b == nil {
		f.fail("store to unregistered binding")
	}
	switch b.ref.kind {
	case refSlot:
		f.emit(opStoreSlot, b.ref.idx, 0, ln, -1)
	case refCell:
		f.emit(opStoreCell, b.ref.idx, 0, ln, -1)
	default:
		f.fail("store to non-local binding %q", b.name)
	}
}

// storeDecl emits the store for a var/function declaration executing in
// the current scope. At the program's top scope these are dynamic global
// declarations (they land in the VM's global scope map, visible to
// CallFunction and later runs).
func (f *cfunc) storeDecl(name string, ln int) {
	if f.global && f.scope == f.top {
		f.emit(opDeclGlobal, f.nameOf(name), 0, ln, -1)
		return
	}
	b := f.scope.find(name)
	if b == nil && f.scope.fn == f && f.scope == f.top {
		b = f.bind(name)
	}
	if b == nil {
		f.fail("declaration of %q missed by scope scan", name)
	}
	f.emitStore(b, ln)
}

// enterScope opens a block scope: registers its declarations and emits
// the slot-reset / fresh-cell prologue so re-entry (each loop iteration)
// gets fresh bindings, exactly as the walker's per-execution child scope.
func (f *cfunc) enterScope(declared []string, ln int) *cscope {
	f.scope = &cscope{fn: f, parent: f.scope}
	slotFrom, cellFrom := int32(f.nslots), int32(f.ncells)
	for _, n := range declared {
		f.bind(n)
	}
	slotTo, cellTo := int32(f.nslots), int32(f.ncells)
	if slotTo > slotFrom {
		f.emit(opResetSlots, slotFrom, slotTo, ln, 0)
	}
	if cellTo > cellFrom {
		f.emit(opNewCells, cellFrom, cellTo, ln, 0)
	}
	return f.scope
}

func (f *cfunc) exitScope() { f.scope = f.scope.parent }

func (f *cfunc) innerLoop() *loopCtx {
	if len(f.loops) == 0 {
		return nil
	}
	return f.loops[len(f.loops)-1]
}

// stmt compiles one statement.
func (f *cfunc) stmt(st node) {
	switch s := st.(type) {
	case blockStmt:
		var declared []string
		scanDecls(s.body, &declared, map[string]bool{})
		f.enterScope(declared, s.line())
		for _, sub := range s.body {
			if fd, ok := sub.(funcDecl); ok {
				idx := f.compileFuncLit(fd.fn)
				f.emit(opClosure, idx, 0, fd.line(), 1)
				f.emitStore(f.scope.find(fd.fn.name), fd.line())
			}
		}
		for _, sub := range s.body {
			if _, ok := sub.(funcDecl); ok {
				continue
			}
			f.stmt(sub)
		}
		f.exitScope()
	case varDecl:
		for i, name := range s.names {
			if s.values[i] != nil {
				f.expr(s.values[i])
			} else {
				f.emit(opUndef, 0, 0, s.line(), 1)
			}
			f.storeDecl(name, s.line())
		}
	case exprStmt:
		f.expr(s.expr)
		f.emit(opPop, 0, 0, s.line(), -1)
	case ifStmt:
		f.expr(s.cond)
		j1 := f.emit(opJumpIfFalse, 0, 0, s.line(), -1)
		f.stmt(s.then)
		if s.alt != nil {
			j2 := f.emit(opJump, 0, 0, s.line(), 0)
			f.patch(j1, f.pc())
			f.stmt(s.alt)
			f.patch(j2, f.pc())
		} else {
			f.patch(j1, f.pc())
		}
	case whileStmt:
		lp := &loopCtx{segDepth: f.segDepth}
		f.loops = append(f.loops, lp)
		top := f.pc()
		lp.contTarget = top
		f.expr(s.cond)
		jEnd := f.emit(opJumpIfFalse, 0, 0, s.line(), -1)
		f.stmt(s.body)
		f.emit(opJump, top, 0, s.line(), 0)
		f.endLoop(lp, jEnd)
	case forStmt:
		var declared []string
		seen := map[string]bool{}
		if s.init != nil {
			scanDeclStmt(s.init, &declared, seen)
		}
		scanDeclStmt(s.body, &declared, seen)
		f.enterScope(declared, s.line())
		if s.init != nil {
			f.stmt(s.init)
		}
		lp := &loopCtx{segDepth: f.segDepth}
		f.loops = append(f.loops, lp)
		top := f.pc()
		jEnd := -1
		if s.cond != nil {
			f.expr(s.cond)
			jEnd = f.emit(opJumpIfFalse, 0, 0, s.line(), -1)
		}
		f.stmt(s.body)
		lp.contTarget = f.pc()
		for _, site := range lp.contSites {
			f.patch(site, lp.contTarget)
		}
		if s.post != nil {
			f.expr(s.post)
			f.emit(opPop, 0, 0, s.line(), -1)
		}
		f.emit(opJump, top, 0, s.line(), 0)
		f.endLoop(lp, jEnd)
		f.exitScope()
	case forInStmt:
		f.expr(s.obj)
		var declared []string
		seen := map[string]bool{s.varName: true}
		declared = append(declared, s.varName)
		scanDeclStmt(s.body, &declared, seen)
		f.enterScope(declared, s.line())
		loopVar := f.scope.find(s.varName)
		// Declare the loop variable once; iterations share its binding (the
		// walker holds one slot pointer across the whole loop).
		f.emit(opUndef, 0, 0, s.line(), 1)
		f.emitStore(loopVar, s.line())
		itemsSlot := f.allocSlot()
		f.allocSlot() // index slot, itemsSlot+1
		kind := int32(0)
		if s.of {
			kind = 1
		}
		f.emit(opForPrep, itemsSlot, kind, s.line(), -1)
		lp := &loopCtx{segDepth: f.segDepth}
		f.loops = append(f.loops, lp)
		top := f.pc()
		lp.contTarget = top
		jNext := f.emit(opForNext, itemsSlot, 0, s.line(), 1)
		f.emitStore(loopVar, s.line())
		f.stmt(s.body)
		f.emit(opJump, top, 0, s.line(), 0)
		end := f.pc()
		f.proto.code[jNext].b = end
		f.endLoop(lp, -1)
		f.exitScope()
	case returnStmt:
		if s.value != nil {
			f.expr(s.value)
			f.emit(opReturn, 0, 0, s.line(), -1)
		} else {
			f.emit(opReturnUndef, 0, 0, s.line(), 0)
		}
	case breakStmt:
		lp := f.innerLoop()
		if lp != nil && lp.segDepth == f.segDepth {
			lp.breakSites = append(lp.breakSites, f.emit(opJump, 0, 0, s.line(), 0))
		} else {
			f.emit(opBreak, 0, 0, s.line(), 0)
		}
	case continueStmt:
		lp := f.innerLoop()
		if lp != nil && lp.segDepth == f.segDepth {
			lp.contSites = append(lp.contSites, f.emit(opJump, lp.contTarget, 0, s.line(), 0))
		} else {
			f.emit(opContinue, 0, 0, s.line(), 0)
		}
	case throwStmt:
		f.expr(s.value)
		f.emit(opThrow, 0, 0, s.line(), -1)
	case tryStmt:
		f.tryStmt(s)
	case funcDecl:
		// A function statement outside a block (e.g. an if branch) declares
		// at execution time, like the walker's execStmt default.
		idx := f.compileFuncLit(s.fn)
		f.emit(opClosure, idx, 0, s.line(), 1)
		f.storeDecl(s.fn.name, s.line())
	default:
		f.fail("unknown statement %T", st)
	}
}

// endLoop patches a loop's break sites (and registered try descriptors)
// to the loop end and pops the loop context. jEnd < 0 means no condition
// jump needs patching. Continue sites not already patched (while/for-in
// know their target up front) are patched by the caller.
func (f *cfunc) endLoop(lp *loopCtx, jEnd int) {
	end := f.pc()
	if jEnd >= 0 {
		f.patch(jEnd, end)
	}
	for _, site := range lp.breakSites {
		f.patch(site, end)
	}
	for _, site := range lp.contSites {
		f.patch(site, lp.contTarget)
	}
	for _, d := range lp.tryDescs {
		f.proto.trys[d].breakPC = end
		f.proto.trys[d].continuePC = lp.contTarget
	}
	f.loops = f.loops[:len(f.loops)-1]
}

// tryStmt compiles try/catch/finally as three code segments executed
// recursively by the VM, replicating the walker's completion semantics:
// only thrown *Error values reach catch, a finally error wins, and a
// finally control transfer overrides (and swallows) the pending outcome.
func (f *cfunc) tryStmt(s tryStmt) {
	descIdx := len(f.proto.trys)
	f.proto.trys = append(f.proto.trys, tryDesc{
		catchStart: -1, finStart: -1, breakPC: -1, continuePC: -1,
	})
	if lp := f.innerLoop(); lp != nil && lp.segDepth == f.segDepth {
		lp.tryDescs = append(lp.tryDescs, descIdx)
	}
	f.emit(opTry, int32(descIdx), 0, s.line(), 0)
	f.segDepth++
	bodyStart := f.pc()
	f.stmt(s.body)
	bodyEnd := f.pc()
	catchStart, catchEnd := int32(-1), int32(-1)
	if s.catchBody != nil {
		catchStart = f.pc()
		// The VM pushes the thrown value before entering this segment.
		f.adjust(1)
		var declared []string
		seen := map[string]bool{}
		if s.catchVar != "" {
			declared = append(declared, s.catchVar)
			seen[s.catchVar] = true
		}
		scanDeclStmt(s.catchBody, &declared, seen)
		f.enterScope(declared, s.line())
		if s.catchVar != "" {
			f.emitStore(f.scope.find(s.catchVar), s.line())
		} else {
			f.emit(opPop, 0, 0, s.line(), -1)
		}
		f.stmt(s.catchBody)
		f.exitScope()
		catchEnd = f.pc()
	}
	finStart, finEnd := int32(-1), int32(-1)
	if s.finally != nil {
		finStart = f.pc()
		f.stmt(s.finally)
		finEnd = f.pc()
	}
	f.segDepth--
	d := &f.proto.trys[descIdx]
	d.bodyStart, d.bodyEnd = bodyStart, bodyEnd
	d.catchStart, d.catchEnd = catchStart, catchEnd
	d.finStart, d.finEnd = finStart, finEnd
	d.end = f.pc()
}

// expr compiles one expression, leaving its value on the operand stack.
func (f *cfunc) expr(e node) {
	switch x := e.(type) {
	case numberLit:
		f.constOf(Number(x.val), x.line())
	case stringLit:
		f.constOf(String(x.val), x.line())
	case boolLit:
		if x.val {
			f.emit(opTrue, 0, 0, x.line(), 1)
		} else {
			f.emit(opFalse, 0, 0, x.line(), 1)
		}
	case nullLit:
		f.emit(opNull, 0, 0, x.line(), 1)
	case undefinedLit:
		f.emit(opUndef, 0, 0, x.line(), 1)
	case thisExpr:
		f.emit(opThis, 0, 0, x.line(), 1)
	case identExpr:
		lk, ic := f.lookupOf(x.name)
		f.emit(opGetLookup, lk, ic, x.line(), 1)
	case arrayLit:
		for _, el := range x.elems {
			f.expr(el)
		}
		f.emit(opNewArray, int32(len(x.elems)), 0, x.line(), 1-len(x.elems))
	case objectLit:
		keys := make([]int32, len(x.props))
		for i, p := range x.props {
			keys[i] = f.nameOf(p.key)
			f.expr(p.val)
		}
		idx := int32(len(f.proto.objLits))
		f.proto.objLits = append(f.proto.objLits, keys)
		f.emit(opNewObject, idx, 0, x.line(), 1-len(x.props))
	case funcLit:
		idx := f.compileFuncLit(&x)
		f.emit(opClosure, idx, 0, x.line(), 1)
	case memberExpr:
		f.member(x)
	case callExpr:
		f.call(x)
	case newExpr:
		f.expr(x.callee)
		for _, a := range x.args {
			f.expr(a)
		}
		f.emit(opNew, int32(len(x.args)), 0, x.line(), -len(x.args))
	case unaryExpr:
		f.unary(x)
	case updateExpr:
		f.update(x)
	case binaryExpr:
		f.expr(x.left)
		f.expr(x.right)
		f.binOp(x.op, x.line())
	case logicalExpr:
		f.expr(x.left)
		var j int
		switch x.op {
		case "&&":
			j = f.emit(opJumpFalsy, 0, 0, x.line(), 0)
		case "||":
			j = f.emit(opJumpTruthy, 0, 0, x.line(), 0)
		case "??":
			j = f.emit(opJumpNotNull, 0, 0, x.line(), 0)
		default:
			f.fail("unknown logical operator %q", x.op)
		}
		f.emit(opPop, 0, 0, x.line(), -1)
		f.expr(x.right)
		f.patch(j, f.pc())
	case condExpr:
		f.expr(x.cond)
		j1 := f.emit(opJumpIfFalse, 0, 0, x.line(), -1)
		f.expr(x.then)
		j2 := f.emit(opJump, 0, 0, x.line(), 0)
		f.patch(j1, f.pc())
		f.adjust(-1) // branches rejoin at the same height
		f.expr(x.alt)
		f.patch(j2, f.pc())
	case assignExpr:
		f.assign(x)
	case seqExpr:
		for i, sub := range x.exprs {
			f.expr(sub)
			if i < len(x.exprs)-1 {
				f.emit(opPop, 0, 0, x.line(), -1)
			}
		}
	default:
		f.fail("unknown expression %T", e)
	}
}

// member compiles a property read (the walker evaluates the object, then
// the computed index).
func (f *cfunc) member(x memberExpr) {
	f.expr(x.obj)
	if x.computed != nil {
		f.expr(x.computed)
		f.emit(opGetMemberDyn, 0, 0, x.line(), -1)
		return
	}
	f.emit(opGetMember, f.nameOf(x.prop), f.icSite(), x.line(), 0)
}

// call compiles a call; method calls evaluate the receiver once and bind
// it as this, exactly as evalCall does.
func (f *cfunc) call(x callExpr) {
	if m, ok := x.callee.(memberExpr); ok {
		f.expr(m.obj)
		if m.computed != nil {
			f.expr(m.computed)
			f.emit(opGetMethodDyn, 0, 0, m.line(), 0)
		} else {
			f.emit(opGetMethod, f.nameOf(m.prop), f.icSite(), m.line(), 1)
		}
	} else {
		f.emit(opUndef, 0, 0, x.line(), 1)
		f.expr(x.callee)
	}
	for _, a := range x.args {
		f.expr(a)
	}
	f.emit(opCall, int32(len(x.args)), 0, x.line(), -len(x.args)-1)
}

func (f *cfunc) binOp(op string, ln int) {
	switch op {
	case "+":
		f.emit(opAdd, 0, 0, ln, -1)
	case "-":
		f.emit(opSub, 0, 0, ln, -1)
	case "*":
		f.emit(opMul, 0, 0, ln, -1)
	case "<":
		f.emit(opLt, 0, 0, ln, -1)
	case ">":
		f.emit(opGt, 0, 0, ln, -1)
	case "===":
		f.emit(opStrictEq, 0, 0, ln, -1)
	case "!==":
		f.emit(opStrictEq, 1, 0, ln, -1)
	default:
		f.emit(opBinary, f.nameOf(op), 0, ln, -1)
	}
}

func (f *cfunc) unary(x unaryExpr) {
	ln := x.line()
	switch x.op {
	case "typeof":
		if id, ok := x.expr.(identExpr); ok {
			lk, _ := f.lookupOf(id.name)
			f.emit(opTypeofLk, lk, 0, ln, 1)
			return
		}
		f.expr(x.expr)
		f.emit(opTypeofVal, 0, 0, ln, 0)
	case "!":
		f.expr(x.expr)
		f.emit(opNot, 0, 0, ln, 0)
	case "-":
		f.expr(x.expr)
		f.emit(opNeg, 0, 0, ln, 0)
	case "+":
		f.expr(x.expr)
		f.emit(opToNum, 0, 0, ln, 0)
	case "~":
		f.expr(x.expr)
		f.emit(opBitNot, 0, 0, ln, 0)
	case "void":
		f.expr(x.expr)
		f.emit(opPop, 0, 0, ln, -1)
		f.emit(opUndef, 0, 0, ln, 1)
	case "delete":
		// The walker evaluates the full operand first (so a member read
		// that throws still throws), then re-evaluates the object and
		// deletes only static properties; the result is always true.
		f.expr(x.expr)
		f.emit(opPop, 0, 0, ln, -1)
		if m, ok := x.expr.(memberExpr); ok {
			f.expr(m.obj)
			if m.computed == nil {
				f.emit(opDelMember, f.nameOf(m.prop), 0, ln, -1)
			} else {
				f.emit(opPop, 0, 0, ln, -1)
			}
		}
		f.emit(opTrue, 0, 0, ln, 1)
	default:
		f.fail("unknown unary operator %q", x.op)
	}
}

func (f *cfunc) update(x updateExpr) {
	ln := x.line()
	delta := int32(1)
	if x.op == "--" {
		delta = -1
	}
	switch t := x.target.(type) {
	case identExpr:
		lk, ic := f.lookupOf(t.name)
		f.emit(opGetLookup, lk, ic, ln, 1)
		if x.prefix {
			f.emit(opIncN, delta, 0, ln, 0)
			slk, _ := f.lookupOf(t.name)
			f.emit(opSetLookup, slk, -1, ln, 0)
		} else {
			f.emit(opToNum, 0, 0, ln, 0)
			f.emit(opDup, 0, 0, ln, 1)
			f.emit(opIncN, delta, 0, ln, 0)
			slk, _ := f.lookupOf(t.name)
			f.emit(opSetLookup, slk, -1, ln, 0)
			f.emit(opPop, 0, 0, ln, -1)
		}
	case memberExpr:
		// Old value: full member read. Assignment re-evaluates the object
		// (and computed index), matching assignTo's double evaluation.
		f.member(t)
		if !x.prefix {
			f.emit(opToNum, 0, 0, ln, 0)
			f.emit(opDup, 0, 0, ln, 1)
		}
		f.emit(opIncN, delta, 0, ln, 0)
		f.storeMember(t, ln)
		if !x.prefix {
			f.emit(opPop, 0, 0, ln, -1)
		}
	default:
		f.expr(x.target)
		f.emit(opPop, 0, 0, ln, -1)
		f.emit(opBadAssign, 0, 0, ln, 1)
	}
}

// storeMember writes the top of stack into a member target, evaluating
// the object (and computed index) afresh; the value stays on the stack.
func (f *cfunc) storeMember(t memberExpr, ln int) {
	f.expr(t.obj)
	if t.computed != nil {
		f.expr(t.computed)
		f.emit(opSetMemberDyn, 0, 0, ln, -2)
		return
	}
	f.emit(opSetMember, f.nameOf(t.prop), 0, ln, -1)
}

func (f *cfunc) assign(x assignExpr) {
	ln := x.line()
	if x.op == "=" {
		switch t := x.target.(type) {
		case identExpr:
			f.expr(x.value)
			lk, _ := f.lookupOf(t.name)
			f.emit(opSetLookup, lk, -1, ln, 0)
		case memberExpr:
			f.expr(x.value)
			f.storeMember(t, ln)
		default:
			f.expr(x.value)
			f.emit(opPop, 0, 0, ln, -1)
			f.emit(opBadAssign, 0, 0, ln, 1)
		}
		return
	}
	op := x.op[:len(x.op)-1]
	switch t := x.target.(type) {
	case identExpr:
		lk, ic := f.lookupOf(t.name)
		f.emit(opGetLookup, lk, ic, ln, 1)
		f.expr(x.value)
		f.binOp(op, ln)
		slk, _ := f.lookupOf(t.name)
		f.emit(opSetLookup, slk, -1, ln, 0)
	case memberExpr:
		f.member(t)
		f.expr(x.value)
		f.binOp(op, ln)
		f.storeMember(t, ln)
	default:
		f.expr(x.value)
		f.emit(opPop, 0, 0, ln, -1)
		f.emit(opBadAssign, 0, 0, ln, 1)
	}
}
