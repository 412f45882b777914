package jsvm

import (
	"errors"
	"math"
	"strconv"
)

// ErrStepBudget reports that a script exceeded its step budget. Callers
// check it with errors.Is to distinguish a runaway injected script from a
// genuine script error.
var ErrStepBudget = errors.New("step budget exhausted")

// VM executes compiled programs against a global object. A step budget
// bounds runaway scripts (injected code is untrusted by definition).
//
// A VM is single-goroutine: use one VM per worker. Programs (see Compile)
// are immutable and may be shared between VMs running concurrently.
type VM struct {
	// Global is the global object. It starts empty, with the bindings of
	// the VM's realm pending on it (see Realm).
	Global *Object
	// Host is the embedder's state for this VM, set by Realm.New; the
	// realm's build functions find their host objects' owner through it.
	Host any
	// globals holds the bindings top-level declarations create; a name
	// missing here resolves on Global, where hosts pre-seed theirs.
	globals map[string]*Value
	// pending is the realm bindings not built yet, referenced by Global.
	pending pendingGlobals
	// MaxSteps bounds a Run's work in the reference tree walker's unit,
	// evaluated AST nodes; 0 means the default. The VM charges one step
	// per instruction against MaxSteps*bcStepFactor.
	MaxSteps int
	steps    int

	// The shared value stack, the last-expression register, per-program
	// inline caches and their hit counters.
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

// New creates a VM over the standard built-ins (Builtins); console is
// left to embedders.
func New() *VM { return builtins.New(nil) }

// declareGlobal binds name in the global scope to a fresh box.
func (vm *VM) declareGlobal(name string, v Value) {
	vm.globals[name] = &v
	vm.globalGen++ // invalidate global-lookup inline caches
}

// Run compiles and executes src in the global scope, returning the value
// of the last expression statement (mirroring evaluateJavascript
// semantics). Callers executing the same source repeatedly should Compile
// (or CompileCached) once and use RunProgram.
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
	vm.steps = 0
	vm.lastVal = Undefined()
	st, v, err := vm.execProto(p.main, nil, Undefined(), vm.sp, 0)
	vm.flushICTelemetry()
	if err != nil {
		return Undefined(), err
	}
	if st == stReturn {
		return v, nil
	}
	return vm.lastVal, nil
}

// CallFunction invokes a callable value from Go.
func (vm *VM) CallFunction(fn Value, this Value, args ...Value) (Value, error) {
	return vm.invoke(fn, this, args, 0)
}

// invoke calls fn with arguments held outside the VM stack (Go callers,
// host builtins): a host function gets args as they are, a bytecode
// closure a copy on the stack.
func (vm *VM) invoke(fn Value, this Value, args []Value, ln int) (Value, error) {
	o := fn.Object()
	if o == nil || !o.IsCallable() {
		return Undefined(), throwError("line %d: %s is not a function", ln, fn.StringValue())
	}
	if o.host != nil {
		return o.host(Call{VM: vm, This: this, Args: args})
	}
	return vm.callClosure(o, this, args)
}

// getProp reads obj[name], including string, number, array and
// Object.prototype built-in members.
func (vm *VM) getProp(obj Value, name string, ln int) (Value, error) {
	switch obj.Kind() {
	case KindObject:
		o := obj.Object()
		if o.IsArray() {
			if v, ok := arrayMethod(o, name); ok {
				return v, nil
			}
		}
		if v, ok := o.ownProp(name); ok {
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
			return Bool(o.hasProp(l.StringValue())), nil
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
