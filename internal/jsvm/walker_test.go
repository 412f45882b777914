package jsvm

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the tree-walking interpreter: the reference engine the
// differential tests, FuzzDifferentialEngines and the benchmarks compare
// the bytecode VM against. It evaluates the parsed AST directly, sharing
// the VM's global object, global bindings, step counter, built-ins,
// property reads (getProp) and operators (binaryOp); everything else is
// its own. Its function objects are host functions whose Host is the
// *closure they run, so builtins, host code and bytecode call them
// through the VM's ordinary host-function dispatch, and no script can
// tell them from bytecode closures.

// walker runs scripts on one VM. Like the VM it is single-goroutine.
type walker struct {
	vm     *VM
	global *scope

	// scopeFree recycles call/block scopes that no closure captured;
	// argFree recycles argument slabs for script-function calls. Both cut
	// the dominant allocations on the injected-script hot path.
	scopeFree []*scope
	argFree   [][]Value
}

func newWalker(vm *VM) *walker {
	w := &walker{vm: vm}
	// The global scope is permanently "escaped": it is never recycled, and
	// marking it stops the escape walk in makeFunction.
	w.global = &scope{vars: vm.globals, w: w, escaped: true}
	return w
}

// scope is a lexical environment.
type scope struct {
	vars   map[string]*Value
	parent *scope
	w      *walker
	// escaped is set when a closure captures this scope (or an ancestor
	// walk marked it); escaped scopes are never returned to the pool.
	escaped bool
}

func (s *scope) child() *scope {
	w := s.w
	if n := len(w.scopeFree); n > 0 {
		sc := w.scopeFree[n-1]
		w.scopeFree = w.scopeFree[:n-1]
		sc.parent = s
		return sc
	}
	return &scope{vars: make(map[string]*Value, 4), parent: s, w: s.w}
}

// release returns a scope to the pool unless a closure captured it. Only
// call when every reference into the scope (lookup slots) is dead.
func (s *scope) release() {
	if s.escaped {
		return
	}
	clear(s.vars)
	s.parent = nil
	s.w.scopeFree = append(s.w.scopeFree, s)
}

// takeArgs returns a reusable argument slab for a script-function call.
// Script calls copy every argument into the callee scope (and, when used,
// into a fresh `arguments` array), so the slab can be reclaimed as soon as
// the call returns. Host calls keep allocating: a host function may retain
// its Args slice.
func (w *walker) takeArgs(n int) []Value {
	if k := len(w.argFree); k > 0 {
		s := w.argFree[k-1]
		if cap(s) >= n {
			w.argFree = w.argFree[:k-1]
			return s[:n]
		}
	}
	if n < 8 {
		return make([]Value, n, 8)
	}
	return make([]Value, n)
}

func (w *walker) putArgs(s []Value) {
	if cap(s) == 0 {
		return
	}
	clear(s[:cap(s)])
	w.argFree = append(w.argFree, s[:0])
}

func (s *scope) lookup(name string) (*Value, bool) {
	for e := s; e != nil; e = e.parent {
		if v, ok := e.vars[name]; ok {
			return v, true
		}
	}
	// Globals live on the global object so hosts can pre-seed them.
	if g := s.w.vm.Global; g.Has(name) {
		v := g.Get(name)
		return &v, true
	}
	return nil, false
}

func (s *scope) declare(name string, v Value) {
	if s == s.w.global {
		s.w.vm.declareGlobal(name, v)
		return
	}
	val := v
	s.vars[name] = &val
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

// run is VM.Run on the walker: src must compile (parse and lower to
// bytecode) exactly as for the VM, and the walker then walks its AST.
func (w *walker) run(src string) (Value, error) {
	if _, err := Compile(src); err != nil {
		return Undefined(), err
	}
	body, err := parseProgram(src)
	if err != nil {
		return Undefined(), err
	}
	return w.exec(body)
}

// exec is VM.RunProgram on the walker: it executes a parsed program in the
// global scope and returns the value of the last expression statement.
func (w *walker) exec(body []node) (Value, error) {
	executeCounter.Load().Inc()
	w.vm.steps = 0
	// Hoisted function declarations.
	for _, st := range body {
		if fd, ok := st.(funcDecl); ok {
			w.global.declare(fd.fn.name, w.makeFunction(fd.fn, w.global))
		}
	}
	var last Value
	for _, st := range body {
		if _, ok := st.(funcDecl); ok {
			continue
		}
		comp, v, err := w.execStmt(st, w.global, Undefined())
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

func (w *walker) step(ln int) error {
	vm := w.vm
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

// closure is the Host of a walker function object: the function literal
// and the scope it was created in.
type closure struct {
	fn  *funcLit
	env *scope
}

func (w *walker) makeFunction(fn *funcLit, env *scope) Value {
	// The closure keeps its defining scope chain alive: none of those
	// scopes may be recycled. The walk stops at the first already-escaped
	// scope because marking always covers the full chain above it.
	for e := env; e != nil && !e.escaped; e = e.parent {
		e.escaped = true
	}
	cl := &closure{fn: fn, env: env}
	o := NewHostFunc(fn.name, func(c Call) (Value, error) { return w.call(cl, c.This, c.Args) })
	o.Host = cl
	return ObjectValue(o)
}

// execStmt executes one statement. The second return carries the value of
// expression statements (for REPL-style Run results).
func (w *walker) execStmt(st node, env *scope, this Value) (completion, Value, error) {
	if err := w.step(st.line()); err != nil {
		return completion{}, Undefined(), err
	}
	switch s := st.(type) {
	case blockStmt:
		inner := env.child()
		defer inner.release()
		for _, sub := range s.body {
			if fd, ok := sub.(funcDecl); ok {
				inner.declare(fd.fn.name, w.makeFunction(fd.fn, inner))
			}
		}
		for _, sub := range s.body {
			if _, ok := sub.(funcDecl); ok {
				continue
			}
			comp, _, err := w.execStmt(sub, inner, this)
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
				v, err = w.eval(s.values[i], env, this)
				if err != nil {
					return completion{}, Undefined(), err
				}
			}
			env.declare(name, v)
		}
		return completion{}, Undefined(), nil
	case exprStmt:
		v, err := w.eval(s.expr, env, this)
		return completion{}, v, err
	case ifStmt:
		cond, err := w.eval(s.cond, env, this)
		if err != nil {
			return completion{}, Undefined(), err
		}
		if cond.Truthy() {
			comp, _, err := w.execStmt(s.then, env, this)
			return comp, Undefined(), err
		}
		if s.alt != nil {
			comp, _, err := w.execStmt(s.alt, env, this)
			return comp, Undefined(), err
		}
		return completion{}, Undefined(), nil
	case forStmt:
		inner := env.child()
		defer inner.release()
		if s.init != nil {
			if comp, _, err := w.execStmt(s.init, inner, this); err != nil || comp.ctrl != ctrlNone {
				return comp, Undefined(), err
			}
		}
		for {
			if s.cond != nil {
				c, err := w.eval(s.cond, inner, this)
				if err != nil {
					return completion{}, Undefined(), err
				}
				if !c.Truthy() {
					break
				}
			}
			comp, _, err := w.execStmt(s.body, inner, this)
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
				if _, err := w.eval(s.post, inner, this); err != nil {
					return completion{}, Undefined(), err
				}
			}
			if err := w.step(s.line()); err != nil {
				return completion{}, Undefined(), err
			}
		}
		return completion{}, Undefined(), nil
	case forInStmt:
		obj, err := w.eval(s.obj, env, this)
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
			comp, _, err := w.execStmt(s.body, inner, this)
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
			c, err := w.eval(s.cond, env, this)
			if err != nil {
				return completion{}, Undefined(), err
			}
			if !c.Truthy() {
				break
			}
			comp, _, err := w.execStmt(s.body, env, this)
			if err != nil {
				return completion{}, Undefined(), err
			}
			if comp.ctrl == ctrlBreak {
				break
			}
			if comp.ctrl == ctrlReturn {
				return comp, Undefined(), nil
			}
			if err := w.step(s.line()); err != nil {
				return completion{}, Undefined(), err
			}
		}
		return completion{}, Undefined(), nil
	case returnStmt:
		var v Value
		if s.value != nil {
			var err error
			v, err = w.eval(s.value, env, this)
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
		v, err := w.eval(s.value, env, this)
		if err != nil {
			return completion{}, Undefined(), err
		}
		return completion{}, Undefined(), &Error{Value: v, Where: fmt.Sprintf("line %d", s.line())}
	case tryStmt:
		comp, _, err := w.execStmt(s.body, env, this)
		if err != nil {
			if jsErr, ok := err.(*Error); ok && s.catchBody != nil {
				inner := env.child()
				if s.catchVar != "" {
					inner.declare(s.catchVar, jsErr.Value)
				}
				comp, _, err = w.execStmt(s.catchBody, inner, this)
				inner.release()
			}
		}
		if s.finally != nil {
			fcomp, _, ferr := w.execStmt(s.finally, env, this)
			if ferr != nil {
				return completion{}, Undefined(), ferr
			}
			if fcomp.ctrl != ctrlNone {
				return fcomp, Undefined(), nil
			}
		}
		return comp, Undefined(), err
	case funcDecl:
		env.declare(s.fn.name, w.makeFunction(s.fn, env))
		return completion{}, Undefined(), nil
	default:
		return completion{}, Undefined(), fmt.Errorf("jsvm: line %d: unknown statement %T", st.line(), st)
	}
}

func (w *walker) eval(e node, env *scope, this Value) (Value, error) {
	if err := w.step(e.line()); err != nil {
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
			v, err := w.eval(el, env, this)
			if err != nil {
				return Undefined(), err
			}
			arr.Append(v)
		}
		return ObjectValue(arr), nil
	case objectLit:
		o := NewObject()
		for _, p := range x.props {
			v, err := w.eval(p.val, env, this)
			if err != nil {
				return Undefined(), err
			}
			o.Set(p.key, v)
		}
		return ObjectValue(o), nil
	case funcLit:
		return w.makeFunction(&x, env), nil
	case memberExpr:
		obj, err := w.eval(x.obj, env, this)
		if err != nil {
			return Undefined(), err
		}
		return w.getMember(obj, x, env, this)
	case callExpr:
		return w.evalCall(x, env, this)
	case newExpr:
		callee, err := w.eval(x.callee, env, this)
		if err != nil {
			return Undefined(), err
		}
		args, err := w.evalArgs(x.args, env, this)
		if err != nil {
			return Undefined(), err
		}
		o := callee.Object()
		if o == nil || !o.IsCallable() {
			return Undefined(), throwError("not a constructor")
		}
		inst := NewObject()
		ret, err := w.vm.invoke(callee, ObjectValue(inst), args, x.line())
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
		v, err := w.eval(x.expr, env, this)
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
				obj, err := w.eval(m.obj, env, this)
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
		old, err := w.eval(x.target, env, this)
		if err != nil {
			return Undefined(), err
		}
		delta := 1.0
		if x.op == "--" {
			delta = -1
		}
		nv := Number(old.NumberValue() + delta)
		if err := w.assignTo(x.target, nv, env, this); err != nil {
			return Undefined(), err
		}
		if x.prefix {
			return nv, nil
		}
		return Number(old.NumberValue()), nil
	case binaryExpr:
		l, err := w.eval(x.left, env, this)
		if err != nil {
			return Undefined(), err
		}
		r, err := w.eval(x.right, env, this)
		if err != nil {
			return Undefined(), err
		}
		return binaryOp(x.op, l, r)
	case logicalExpr:
		l, err := w.eval(x.left, env, this)
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
		return w.eval(x.right, env, this)
	case condExpr:
		c, err := w.eval(x.cond, env, this)
		if err != nil {
			return Undefined(), err
		}
		if c.Truthy() {
			return w.eval(x.then, env, this)
		}
		return w.eval(x.alt, env, this)
	case assignExpr:
		var v Value
		var err error
		if x.op == "=" {
			v, err = w.eval(x.value, env, this)
		} else {
			var old, rhs Value
			old, err = w.eval(x.target, env, this)
			if err != nil {
				return Undefined(), err
			}
			rhs, err = w.eval(x.value, env, this)
			if err != nil {
				return Undefined(), err
			}
			v, err = binaryOp(strings.TrimSuffix(x.op, "="), old, rhs)
		}
		if err != nil {
			return Undefined(), err
		}
		if err := w.assignTo(x.target, v, env, this); err != nil {
			return Undefined(), err
		}
		return v, nil
	case seqExpr:
		var last Value
		for _, sub := range x.exprs {
			v, err := w.eval(sub, env, this)
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

func (w *walker) assignTo(target node, v Value, env *scope, this Value) error {
	switch t := target.(type) {
	case identExpr:
		if slot, ok := env.lookup(t.name); ok {
			*slot = v
			return nil
		}
		// Implicit global.
		w.vm.Global.Set(t.name, v)
		return nil
	case memberExpr:
		obj, err := w.eval(t.obj, env, this)
		if err != nil {
			return err
		}
		o := obj.Object()
		if o == nil {
			return throwError("cannot set property of %s", obj.TypeOf())
		}
		if t.computed != nil {
			idx, err := w.eval(t.computed, env, this)
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

func (w *walker) evalArgs(args []node, env *scope, this Value) ([]Value, error) {
	out := make([]Value, len(args))
	for i, a := range args {
		v, err := w.eval(a, env, this)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (w *walker) evalCall(x callExpr, env *scope, this Value) (Value, error) {
	// Method calls bind `this` to the receiver.
	if m, ok := x.callee.(memberExpr); ok {
		recv, err := w.eval(m.obj, env, this)
		if err != nil {
			return Undefined(), err
		}
		fn, err := w.getMember(recv, m, env, this)
		if err != nil {
			return Undefined(), err
		}
		return w.callWith(fn, recv, x, env, this)
	}
	fn, err := w.eval(x.callee, env, this)
	if err != nil {
		return Undefined(), err
	}
	return w.callWith(fn, Undefined(), x, env, this)
}

// callWith evaluates the call's arguments and invokes fn. Walker-function
// calls draw their argument slab from the walker pool: call copies every
// argument out before running the body, so the slab is reclaimed on
// return. Other functions get a freshly allocated slice (a host function
// may retain it).
func (w *walker) callWith(fn, recv Value, x callExpr, env *scope, this Value) (Value, error) {
	script := false
	if o := fn.Object(); o != nil && o.IsCallable() {
		_, script = o.Host.(*closure)
	}
	var args []Value
	var err error
	if script {
		args = w.takeArgs(len(x.args))
		for i, a := range x.args {
			if args[i], err = w.eval(a, env, this); err != nil {
				w.putArgs(args)
				return Undefined(), err
			}
		}
	} else if args, err = w.evalArgs(x.args, env, this); err != nil {
		return Undefined(), err
	}
	ret, err := w.vm.invoke(fn, recv, args, x.line())
	if script {
		w.putArgs(args)
	}
	return ret, err
}

// call runs a walker closure's body in a fresh call scope.
func (w *walker) call(cl *closure, this Value, args []Value) (Value, error) {
	env := cl.env.child()
	defer env.release()
	for i, p := range cl.fn.params {
		if i < len(args) {
			env.declare(p, args[i])
		} else {
			env.declare(p, Undefined())
		}
	}
	if cl.fn.usesArgs {
		// Only materialise `arguments` for bodies that can mention it
		// (detected at parse time) — the common injected script never does.
		env.declare("arguments", ObjectValue(NewArray(args...)))
	}
	// Hoist inner function declarations.
	for _, st := range cl.fn.body {
		if fd, ok := st.(funcDecl); ok {
			env.declare(fd.fn.name, w.makeFunction(fd.fn, env))
		}
	}
	for _, st := range cl.fn.body {
		if _, ok := st.(funcDecl); ok {
			continue
		}
		comp, _, err := w.execStmt(st, env, this)
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
func (w *walker) getMember(obj Value, m memberExpr, env *scope, this Value) (Value, error) {
	name := m.prop
	if m.computed != nil {
		idx, err := w.eval(m.computed, env, this)
		if err != nil {
			return Undefined(), err
		}
		if o := obj.Object(); o != nil && o.IsArray() && idx.Kind() == KindNumber {
			return o.Index(int(idx.NumberValue())), nil
		}
		name = idx.StringValue()
	}
	return w.vm.getProp(obj, name, m.line())
}
