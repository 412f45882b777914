package jsvm

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ErrStepBudget reports that a script exceeded its step budget. Callers
// check it with errors.Is to distinguish a runaway injected script from a
// genuine script error.
var ErrStepBudget = errors.New("step budget exhausted")

// VM executes parsed programs against a global object. A step budget
// bounds runaway scripts (injected code is untrusted by definition).
//
// A VM is single-goroutine: use one VM per worker. Programs (see Compile)
// are immutable and may be shared between VMs running concurrently.
type VM struct {
	Global *Object
	global *scope
	// MaxSteps bounds evaluated AST nodes per Run; 0 means the default.
	// The bytecode engine charges per instruction against
	// MaxSteps*bcStepFactor, keeping budgets calibrated for the walker
	// valid.
	MaxSteps int
	steps    int

	// Engine selects the execution strategy for RunProgram; the zero value
	// is bytecode.
	Engine Engine

	// scopeFree recycles call/block scopes that no closure captured;
	// argFree recycles argument slabs for script-function calls. Both cut
	// the dominant allocations on the injected-script hot path.
	scopeFree []*scope
	argFree   [][]Value

	// Bytecode engine state: the shared value stack, the last-expression
	// register, per-program inline caches and their hit counters.
	stack      []Value
	sp         int
	lastVal    Value
	globalGen  uint32 // bumped on global-scope declare; validates global ICs
	icTab      map[*funcProto][]icEntry
	lastProto  *funcProto
	lastICs    []icEntry
	icHits     uint64
	icMisses   uint64
	icFlushedH uint64
	icFlushedM uint64
}

const defaultMaxSteps = 2_000_000

// New creates a VM with the standard built-ins installed on its global
// object (console is left to embedders).
func New() *VM {
	g := NewObject()
	vm := &VM{Global: g}
	// The global scope is permanently "escaped": it is never recycled, and
	// marking it stops the escape walk in makeFunction.
	vm.global = &scope{vars: map[string]*Value{}, vm: vm, escaped: true}
	installBuiltins(vm)
	return vm
}

// scope is a lexical environment.
type scope struct {
	vars   map[string]*Value
	parent *scope
	vm     *VM
	// escaped is set when a closure captures this scope (or an ancestor
	// walk marked it); escaped scopes are never returned to the pool.
	escaped bool
}

func (s *scope) child() *scope {
	vm := s.vm
	if n := len(vm.scopeFree); n > 0 {
		sc := vm.scopeFree[n-1]
		vm.scopeFree = vm.scopeFree[:n-1]
		sc.parent = s
		return sc
	}
	return &scope{vars: make(map[string]*Value, 4), parent: s, vm: s.vm}
}

// release returns a scope to the pool unless a closure captured it. Only
// call when every reference into the scope (lookup slots) is dead.
func (s *scope) release() {
	if s.escaped {
		return
	}
	clear(s.vars)
	s.parent = nil
	s.vm.scopeFree = append(s.vm.scopeFree, s)
}

// takeArgs returns a reusable argument slab for a script-function call.
// Script calls copy every argument into the callee scope (and, when used,
// into a fresh `arguments` array), so the slab can be reclaimed as soon as
// the call returns. Host calls keep allocating: a host function may retain
// its Args slice.
func (vm *VM) takeArgs(n int) []Value {
	if k := len(vm.argFree); k > 0 {
		s := vm.argFree[k-1]
		if cap(s) >= n {
			vm.argFree = vm.argFree[:k-1]
			return s[:n]
		}
	}
	if n < 8 {
		return make([]Value, n, 8)
	}
	return make([]Value, n)
}

func (vm *VM) putArgs(s []Value) {
	if cap(s) == 0 {
		return
	}
	clear(s[:cap(s)])
	vm.argFree = append(vm.argFree, s[:0])
}

func (s *scope) lookup(name string) (*Value, bool) {
	for e := s; e != nil; e = e.parent {
		if v, ok := e.vars[name]; ok {
			return v, true
		}
	}
	// Globals live on the global object so hosts can pre-seed them.
	if s.vm.Global.Has(name) {
		v := s.vm.Global.Get(name)
		return &v, true
	}
	return nil, false
}

func (s *scope) declare(name string, v Value) {
	val := v
	s.vars[name] = &val
	if s.vm != nil && s == s.vm.global {
		s.vm.globalGen++ // invalidate global-lookup inline caches
	}
}

// control-flow signals.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

type completion struct {
	ctrl ctrl
	val  Value
}

// Run parses and executes src in the global scope, returning the value of
// the last expression statement (mirroring evaluateJavascript semantics).
// Callers executing the same source repeatedly should Compile (or
// CompileCached) once and use RunProgram.
func (vm *VM) Run(src string) (Value, error) {
	prog, err := Compile(src)
	if err != nil {
		return Undefined(), err
	}
	return vm.RunProgram(prog)
}

// RunProgram executes a compiled program in the global scope. The program
// is not mutated and may be shared with other VMs running concurrently.
func (vm *VM) RunProgram(p *Program) (Value, error) {
	executeCounter.Load().Inc()
	if vm.Engine == EngineBytecode {
		return vm.runBytecode(p)
	}
	vm.steps = 0
	// Hoisted function declarations (split out at compile time).
	for i := range p.decls {
		fd := &p.decls[i]
		vm.global.declare(fd.fn.name, vm.makeFunction(fd.fn, vm.global))
	}
	var last Value
	for _, st := range p.stmts {
		comp, v, err := vm.execStmt(st, vm.global, Undefined())
		if err != nil {
			return Undefined(), err
		}
		if comp.ctrl == ctrlReturn {
			return comp.val, nil
		}
		last = v
	}
	return last, nil
}

// CallFunction invokes a callable value from Go.
func (vm *VM) CallFunction(fn Value, this Value, args ...Value) (Value, error) {
	return vm.invoke(fn, this, args, 0)
}

func (vm *VM) step(ln int) error {
	vm.steps++
	limit := vm.MaxSteps
	if limit == 0 {
		limit = defaultMaxSteps
	}
	if vm.steps > limit {
		stepBudgetCounter.Load().Inc()
		return fmt.Errorf("jsvm: %w (line %d)", ErrStepBudget, ln)
	}
	return nil
}

func (vm *VM) makeFunction(fn *funcLit, env *scope) Value {
	// The closure keeps its defining scope chain alive: none of those
	// scopes may be recycled. The walk stops at the first already-escaped
	// scope because marking always covers the full chain above it.
	for e := env; e != nil && !e.escaped; e = e.parent {
		e.escaped = true
	}
	return ObjectValue(&Object{
		props: map[string]Value{},
		fn:    fn,
		env:   env,
		call:  true,
		name:  fn.name,
	})
}

// execStmt executes one statement. The second return carries the value of
// expression statements (for REPL-style Run results).
func (vm *VM) execStmt(st node, env *scope, this Value) (completion, Value, error) {
	if err := vm.step(st.line()); err != nil {
		return completion{}, Undefined(), err
	}
	switch s := st.(type) {
	case blockStmt:
		inner := env.child()
		defer inner.release()
		for _, sub := range s.body {
			if fd, ok := sub.(funcDecl); ok {
				inner.declare(fd.fn.name, vm.makeFunction(fd.fn, inner))
			}
		}
		for _, sub := range s.body {
			if _, ok := sub.(funcDecl); ok {
				continue
			}
			comp, _, err := vm.execStmt(sub, inner, this)
			if err != nil || comp.ctrl != ctrlNone {
				return comp, Undefined(), err
			}
		}
		return completion{}, Undefined(), nil
	case varDecl:
		for i, name := range s.names {
			var v Value
			if s.values[i] != nil {
				var err error
				v, err = vm.eval(s.values[i], env, this)
				if err != nil {
					return completion{}, Undefined(), err
				}
			}
			env.declare(name, v)
		}
		return completion{}, Undefined(), nil
	case exprStmt:
		v, err := vm.eval(s.expr, env, this)
		return completion{}, v, err
	case ifStmt:
		cond, err := vm.eval(s.cond, env, this)
		if err != nil {
			return completion{}, Undefined(), err
		}
		if cond.Truthy() {
			comp, _, err := vm.execStmt(s.then, env, this)
			return comp, Undefined(), err
		}
		if s.alt != nil {
			comp, _, err := vm.execStmt(s.alt, env, this)
			return comp, Undefined(), err
		}
		return completion{}, Undefined(), nil
	case forStmt:
		inner := env.child()
		defer inner.release()
		if s.init != nil {
			if comp, _, err := vm.execStmt(s.init, inner, this); err != nil || comp.ctrl != ctrlNone {
				return comp, Undefined(), err
			}
		}
		for {
			if s.cond != nil {
				c, err := vm.eval(s.cond, inner, this)
				if err != nil {
					return completion{}, Undefined(), err
				}
				if !c.Truthy() {
					break
				}
			}
			comp, _, err := vm.execStmt(s.body, inner, this)
			if err != nil {
				return completion{}, Undefined(), err
			}
			if comp.ctrl == ctrlBreak {
				break
			}
			if comp.ctrl == ctrlReturn {
				return comp, Undefined(), nil
			}
			if s.post != nil {
				if _, err := vm.eval(s.post, inner, this); err != nil {
					return completion{}, Undefined(), err
				}
			}
			if err := vm.step(s.line()); err != nil {
				return completion{}, Undefined(), err
			}
		}
		return completion{}, Undefined(), nil
	case forInStmt:
		obj, err := vm.eval(s.obj, env, this)
		if err != nil {
			return completion{}, Undefined(), err
		}
		inner := env.child()
		defer inner.release()
		inner.declare(s.varName, Undefined())
		slot, _ := inner.lookup(s.varName)
		var items []Value
		if o := obj.Object(); o != nil {
			if s.of {
				items = append(items, o.Elems()...)
			} else if o.IsArray() {
				for i := range o.Elems() {
					items = append(items, String(strconv.Itoa(i)))
				}
			} else {
				for _, k := range o.enumKeys() {
					items = append(items, String(k))
				}
			}
		} else if obj.Kind() == KindString && s.of {
			for _, r := range obj.StringValue() {
				items = append(items, String(string(r)))
			}
		}
		for _, it := range items {
			*slot = it
			comp, _, err := vm.execStmt(s.body, inner, this)
			if err != nil {
				return completion{}, Undefined(), err
			}
			if comp.ctrl == ctrlBreak {
				break
			}
			if comp.ctrl == ctrlReturn {
				return comp, Undefined(), nil
			}
		}
		return completion{}, Undefined(), nil
	case whileStmt:
		for {
			c, err := vm.eval(s.cond, env, this)
			if err != nil {
				return completion{}, Undefined(), err
			}
			if !c.Truthy() {
				break
			}
			comp, _, err := vm.execStmt(s.body, env, this)
			if err != nil {
				return completion{}, Undefined(), err
			}
			if comp.ctrl == ctrlBreak {
				break
			}
			if comp.ctrl == ctrlReturn {
				return comp, Undefined(), nil
			}
			if err := vm.step(s.line()); err != nil {
				return completion{}, Undefined(), err
			}
		}
		return completion{}, Undefined(), nil
	case returnStmt:
		var v Value
		if s.value != nil {
			var err error
			v, err = vm.eval(s.value, env, this)
			if err != nil {
				return completion{}, Undefined(), err
			}
		}
		return completion{ctrl: ctrlReturn, val: v}, Undefined(), nil
	case breakStmt:
		return completion{ctrl: ctrlBreak}, Undefined(), nil
	case continueStmt:
		return completion{ctrl: ctrlContinue}, Undefined(), nil
	case throwStmt:
		v, err := vm.eval(s.value, env, this)
		if err != nil {
			return completion{}, Undefined(), err
		}
		return completion{}, Undefined(), &Error{Value: v, Where: fmt.Sprintf("line %d", s.line())}
	case tryStmt:
		comp, _, err := vm.execStmt(s.body, env, this)
		if err != nil {
			if jsErr, ok := err.(*Error); ok && s.catchBody != nil {
				inner := env.child()
				if s.catchVar != "" {
					inner.declare(s.catchVar, jsErr.Value)
				}
				comp, _, err = vm.execStmt(s.catchBody, inner, this)
				inner.release()
			}
		}
		if s.finally != nil {
			fcomp, _, ferr := vm.execStmt(s.finally, env, this)
			if ferr != nil {
				return completion{}, Undefined(), ferr
			}
			if fcomp.ctrl != ctrlNone {
				return fcomp, Undefined(), nil
			}
		}
		return comp, Undefined(), err
	case funcDecl:
		env.declare(s.fn.name, vm.makeFunction(s.fn, env))
		return completion{}, Undefined(), nil
	default:
		return completion{}, Undefined(), fmt.Errorf("jsvm: line %d: unknown statement %T", st.line(), st)
	}
}

func (vm *VM) eval(e node, env *scope, this Value) (Value, error) {
	if err := vm.step(e.line()); err != nil {
		return Undefined(), err
	}
	switch x := e.(type) {
	case numberLit:
		return Number(x.val), nil
	case stringLit:
		return String(x.val), nil
	case boolLit:
		return Bool(x.val), nil
	case nullLit:
		return Null(), nil
	case undefinedLit:
		return Undefined(), nil
	case thisExpr:
		return this, nil
	case identExpr:
		if v, ok := env.lookup(x.name); ok {
			return *v, nil
		}
		return Undefined(), throwError("%s is not defined", x.name)
	case arrayLit:
		arr := NewArray()
		for _, el := range x.elems {
			v, err := vm.eval(el, env, this)
			if err != nil {
				return Undefined(), err
			}
			arr.Append(v)
		}
		return ObjectValue(arr), nil
	case objectLit:
		o := NewObject()
		for _, p := range x.props {
			v, err := vm.eval(p.val, env, this)
			if err != nil {
				return Undefined(), err
			}
			o.Set(p.key, v)
		}
		return ObjectValue(o), nil
	case funcLit:
		return vm.makeFunction(&x, env), nil
	case memberExpr:
		obj, err := vm.eval(x.obj, env, this)
		if err != nil {
			return Undefined(), err
		}
		return vm.getMember(obj, x, env, this)
	case callExpr:
		return vm.evalCall(x, env, this)
	case newExpr:
		callee, err := vm.eval(x.callee, env, this)
		if err != nil {
			return Undefined(), err
		}
		args, err := vm.evalArgs(x.args, env, this)
		if err != nil {
			return Undefined(), err
		}
		o := callee.Object()
		if o == nil || !o.IsCallable() {
			return Undefined(), throwError("not a constructor")
		}
		inst := NewObject()
		ret, err := vm.invoke(callee, ObjectValue(inst), args, x.line())
		if err != nil {
			return Undefined(), err
		}
		if ret.Object() != nil {
			return ret, nil
		}
		return ObjectValue(inst), nil
	case unaryExpr:
		if x.op == "typeof" {
			// typeof tolerates undefined identifiers.
			if id, ok := x.expr.(identExpr); ok {
				if v, found := env.lookup(id.name); found {
					return String(v.TypeOf()), nil
				}
				return String("undefined"), nil
			}
		}
		v, err := vm.eval(x.expr, env, this)
		if err != nil {
			return Undefined(), err
		}
		switch x.op {
		case "!":
			return Bool(!v.Truthy()), nil
		case "-":
			return Number(-v.NumberValue()), nil
		case "+":
			return Number(v.NumberValue()), nil
		case "~":
			return Number(float64(^toInt32(v.NumberValue()))), nil
		case "typeof":
			return String(v.TypeOf()), nil
		case "void":
			return Undefined(), nil
		case "delete":
			if m, ok := x.expr.(memberExpr); ok {
				obj, err := vm.eval(m.obj, env, this)
				if err != nil {
					return Undefined(), err
				}
				if o := obj.Object(); o != nil && m.prop != "" {
					o.Delete(m.prop)
				}
			}
			return Bool(true), nil
		}
		return Undefined(), throwError("unknown unary %s", x.op)
	case updateExpr:
		old, err := vm.eval(x.target, env, this)
		if err != nil {
			return Undefined(), err
		}
		delta := 1.0
		if x.op == "--" {
			delta = -1
		}
		nv := Number(old.NumberValue() + delta)
		if err := vm.assignTo(x.target, nv, env, this); err != nil {
			return Undefined(), err
		}
		if x.prefix {
			return nv, nil
		}
		return Number(old.NumberValue()), nil
	case binaryExpr:
		l, err := vm.eval(x.left, env, this)
		if err != nil {
			return Undefined(), err
		}
		r, err := vm.eval(x.right, env, this)
		if err != nil {
			return Undefined(), err
		}
		return binaryOp(x.op, l, r)
	case logicalExpr:
		l, err := vm.eval(x.left, env, this)
		if err != nil {
			return Undefined(), err
		}
		switch x.op {
		case "&&":
			if !l.Truthy() {
				return l, nil
			}
		case "||":
			if l.Truthy() {
				return l, nil
			}
		case "??":
			if !l.IsNullish() {
				return l, nil
			}
		}
		return vm.eval(x.right, env, this)
	case condExpr:
		c, err := vm.eval(x.cond, env, this)
		if err != nil {
			return Undefined(), err
		}
		if c.Truthy() {
			return vm.eval(x.then, env, this)
		}
		return vm.eval(x.alt, env, this)
	case assignExpr:
		var v Value
		var err error
		if x.op == "=" {
			v, err = vm.eval(x.value, env, this)
		} else {
			var old, rhs Value
			old, err = vm.eval(x.target, env, this)
			if err != nil {
				return Undefined(), err
			}
			rhs, err = vm.eval(x.value, env, this)
			if err != nil {
				return Undefined(), err
			}
			v, err = binaryOp(strings.TrimSuffix(x.op, "="), old, rhs)
		}
		if err != nil {
			return Undefined(), err
		}
		if err := vm.assignTo(x.target, v, env, this); err != nil {
			return Undefined(), err
		}
		return v, nil
	case seqExpr:
		var last Value
		for _, sub := range x.exprs {
			v, err := vm.eval(sub, env, this)
			if err != nil {
				return Undefined(), err
			}
			last = v
		}
		return last, nil
	default:
		return Undefined(), fmt.Errorf("jsvm: line %d: unknown expression %T", e.line(), e)
	}
}

func (vm *VM) assignTo(target node, v Value, env *scope, this Value) error {
	switch t := target.(type) {
	case identExpr:
		if slot, ok := env.lookup(t.name); ok {
			*slot = v
			return nil
		}
		// Implicit global.
		vm.Global.Set(t.name, v)
		return nil
	case memberExpr:
		obj, err := vm.eval(t.obj, env, this)
		if err != nil {
			return err
		}
		o := obj.Object()
		if o == nil {
			return throwError("cannot set property of %s", obj.TypeOf())
		}
		if t.computed != nil {
			idx, err := vm.eval(t.computed, env, this)
			if err != nil {
				return err
			}
			if o.IsArray() && idx.Kind() == KindNumber {
				o.SetIndex(int(idx.NumberValue()), v)
				return nil
			}
			o.Set(idx.StringValue(), v)
			return nil
		}
		o.Set(t.prop, v)
		return nil
	default:
		return throwError("invalid assignment target")
	}
}

func (vm *VM) evalArgs(args []node, env *scope, this Value) ([]Value, error) {
	out := make([]Value, len(args))
	for i, a := range args {
		v, err := vm.eval(a, env, this)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (vm *VM) evalCall(x callExpr, env *scope, this Value) (Value, error) {
	// Method calls bind `this` to the receiver.
	if m, ok := x.callee.(memberExpr); ok {
		recv, err := vm.eval(m.obj, env, this)
		if err != nil {
			return Undefined(), err
		}
		fn, err := vm.getMember(recv, m, env, this)
		if err != nil {
			return Undefined(), err
		}
		return vm.callWith(fn, recv, x, env, this)
	}
	fn, err := vm.eval(x.callee, env, this)
	if err != nil {
		return Undefined(), err
	}
	return vm.callWith(fn, Undefined(), x, env, this)
}

// callWith evaluates the call's arguments and invokes fn. Script-function
// calls draw their argument slab from the VM pool: invoke copies every
// argument out before running the body, so the slab is reclaimed on
// return. Host functions get a freshly allocated slice (they may retain
// it).
func (vm *VM) callWith(fn, recv Value, x callExpr, env *scope, this Value) (Value, error) {
	script := false
	if o := fn.Object(); o != nil && o.IsCallable() && o.host == nil {
		script = true
	}
	var args []Value
	var err error
	if script {
		args = vm.takeArgs(len(x.args))
		for i, a := range x.args {
			if args[i], err = vm.eval(a, env, this); err != nil {
				vm.putArgs(args)
				return Undefined(), err
			}
		}
	} else if args, err = vm.evalArgs(x.args, env, this); err != nil {
		return Undefined(), err
	}
	ret, err := vm.invoke(fn, recv, args, x.line())
	if script {
		vm.putArgs(args)
	}
	return ret, err
}

func (vm *VM) invoke(fn Value, this Value, args []Value, ln int) (Value, error) {
	o := fn.Object()
	if o == nil || !o.IsCallable() {
		return Undefined(), throwError("line %d: %s is not a function", ln, fn.StringValue())
	}
	if o.host != nil {
		return o.host(Call{VM: vm, This: this, Args: args})
	}
	if o.proto != nil {
		// Bytecode closure invoked from Go or from walker-evaluated code.
		return vm.callClosure(o, this, args)
	}
	env := o.env.child()
	defer env.release()
	for i, p := range o.fn.params {
		if i < len(args) {
			env.declare(p, args[i])
		} else {
			env.declare(p, Undefined())
		}
	}
	if o.fn.usesArgs {
		// Only materialise `arguments` for bodies that can mention it
		// (detected at parse time) — the common injected script never does.
		env.declare("arguments", ObjectValue(NewArray(args...)))
	}
	// Hoist inner function declarations.
	for _, st := range o.fn.body {
		if fd, ok := st.(funcDecl); ok {
			env.declare(fd.fn.name, vm.makeFunction(fd.fn, env))
		}
	}
	for _, st := range o.fn.body {
		if _, ok := st.(funcDecl); ok {
			continue
		}
		comp, _, err := vm.execStmt(st, env, this)
		if err != nil {
			return Undefined(), err
		}
		if comp.ctrl == ctrlReturn {
			return comp.val, nil
		}
	}
	return Undefined(), nil
}

// getMember reads obj.prop or obj[idx], including string/array built-in
// members.
func (vm *VM) getMember(obj Value, m memberExpr, env *scope, this Value) (Value, error) {
	name := m.prop
	if m.computed != nil {
		idx, err := vm.eval(m.computed, env, this)
		if err != nil {
			return Undefined(), err
		}
		if o := obj.Object(); o != nil && o.IsArray() && idx.Kind() == KindNumber {
			return o.Index(int(idx.NumberValue())), nil
		}
		name = idx.StringValue()
	}
	return vm.getProp(obj, name, m.line())
}

func (vm *VM) getProp(obj Value, name string, ln int) (Value, error) {
	switch obj.Kind() {
	case KindObject:
		o := obj.Object()
		if o.IsArray() {
			if v, ok := arrayMethod(o, name); ok {
				return v, nil
			}
		}
		if v, ok := o.props[name]; ok {
			return vm.propValue(v, obj)
		}
		if o.IsArray() && name == "length" {
			return Number(float64(len(o.elems))), nil
		}
		// An own miss continues on the prototype chain, which ends in the
		// Object.prototype members below.
		if v, ok := o.prototype.findProp(name); ok {
			return vm.propValue(v, obj)
		}
		if fn, ok := objectMethod(o, name); ok {
			return fn, nil
		}
		return Undefined(), nil
	case KindString:
		return stringMember(obj.StringValue(), name)
	case KindNumber:
		if name == "toFixed" {
			n := obj.NumberValue()
			return ObjectValue(NewHostFunc("toFixed", func(c Call) (Value, error) {
				digits := int(c.Arg(0).NumberValue())
				return String(strconv.FormatFloat(n, 'f', digits, 64)), nil
			})), nil
		}
		if name == "toString" {
			n := obj.NumberValue()
			return ObjectValue(NewHostFunc("toString", func(c Call) (Value, error) {
				return String(formatNumber(n)), nil
			})), nil
		}
		return Undefined(), nil
	case KindUndefined, KindNull:
		return Undefined(), throwError("line %d: cannot read property %q of %s", ln, name, obj.StringValue())
	default:
		return Undefined(), nil
	}
}

// propValue resolves a property slot read through recv: data is returned
// as is, and a host accessor is called with recv as This.
func (vm *VM) propValue(v, recv Value) (Value, error) {
	if v.kind != kindAccessor {
		return v, nil
	}
	return v.o.host(Call{VM: vm, This: recv})
}

func binaryOp(op string, l, r Value) (Value, error) {
	switch op {
	case "+":
		if l.Kind() == KindString || r.Kind() == KindString ||
			(l.Kind() == KindObject && !l.IsNullish()) || (r.Kind() == KindObject && !r.IsNullish()) {
			return String(l.StringValue() + r.StringValue()), nil
		}
		return Number(l.NumberValue() + r.NumberValue()), nil
	case "-":
		return Number(l.NumberValue() - r.NumberValue()), nil
	case "*":
		return Number(l.NumberValue() * r.NumberValue()), nil
	case "/":
		return Number(l.NumberValue() / r.NumberValue()), nil
	case "%":
		return Number(math.Mod(l.NumberValue(), r.NumberValue())), nil
	case "==", "===":
		return Bool(looseEquals(l, r, op == "===")), nil
	case "!=", "!==":
		return Bool(!looseEquals(l, r, op == "!==")), nil
	case "<", "<=", ">", ">=":
		if l.Kind() == KindString && r.Kind() == KindString {
			a, b := l.StringValue(), r.StringValue()
			switch op {
			case "<":
				return Bool(a < b), nil
			case "<=":
				return Bool(a <= b), nil
			case ">":
				return Bool(a > b), nil
			default:
				return Bool(a >= b), nil
			}
		}
		a, b := l.NumberValue(), r.NumberValue()
		switch op {
		case "<":
			return Bool(a < b), nil
		case "<=":
			return Bool(a <= b), nil
		case ">":
			return Bool(a > b), nil
		default:
			return Bool(a >= b), nil
		}
	case "&":
		return Number(float64(toInt32(l.NumberValue()) & toInt32(r.NumberValue()))), nil
	case "|":
		return Number(float64(toInt32(l.NumberValue()) | toInt32(r.NumberValue()))), nil
	case "^":
		return Number(float64(toInt32(l.NumberValue()) ^ toInt32(r.NumberValue()))), nil
	case "<<":
		return Number(float64(toInt32(l.NumberValue()) << (uint32(toInt32(r.NumberValue())) & 31))), nil
	case ">>":
		return Number(float64(toInt32(l.NumberValue()) >> (uint32(toInt32(r.NumberValue())) & 31))), nil
	case ">>>":
		return Number(float64(uint32(toInt32(l.NumberValue())) >> (uint32(toInt32(r.NumberValue())) & 31))), nil
	case "in":
		if o := r.Object(); o != nil {
			_, ok := o.findProp(l.StringValue())
			return Bool(ok), nil
		}
		return Bool(false), nil
	case "instanceof":
		// Constructors carry no prototype property linking them to the
		// instances they build, so nothing is an instance of anything.
		return Bool(false), nil
	default:
		return Undefined(), throwError("unknown operator %q", op)
	}
}

func looseEquals(l, r Value, strict bool) bool {
	if l.Kind() == r.Kind() {
		switch l.Kind() {
		case KindUndefined, KindNull:
			return true
		case KindBool:
			return l.b == r.b
		case KindNumber:
			return l.n == r.n
		case KindString:
			return l.s == r.s
		case KindObject:
			return l.o == r.o
		}
	}
	if strict {
		return false
	}
	// Loose cross-kind cases.
	if l.IsNullish() && r.IsNullish() {
		return true
	}
	if l.IsNullish() || r.IsNullish() {
		return false
	}
	return l.NumberValue() == r.NumberValue()
}

func toInt32(f float64) int32 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int32(int64(f))
}
