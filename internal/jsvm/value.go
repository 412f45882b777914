// Package jsvm is a small JavaScript interpreter sufficient to execute the
// scripts the paper observes apps injecting into WebViews: ES5-style
// function expressions and IIFEs, DOM manipulation through host objects,
// string/number arithmetic, control flow, and try/catch. It is the engine
// behind the browser simulation's <script> execution and the WebView
// runtime's evaluateJavascript.
//
// A hand-written parser feeds a bytecode compiler and stack VM, the one
// engine scripts run on. The package's tests keep a tree walker over the
// same AST as the reference the differential tests and fuzzer compare the
// VM against. Host integrations (document, window, console, JS bridges)
// are provided as host objects with Go-function properties; see
// NewObject, HostFunc and VM.Global.
// Embedders that expose many objects of one interface put the shared
// operations and host accessors on a prototype object once
// (SetPrototype, SetAccessor, NewInstance).
package jsvm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates JavaScript value kinds.
type Kind int

// Value kinds.
const (
	KindUndefined Kind = iota
	KindNull
	KindBool
	KindNumber
	KindString
	KindObject // objects, arrays and functions
)

// kindUnset marks a frame slot whose binding has not executed its
// declaration yet (the tree walker models this as "absent from the scope
// map"). It never escapes the VM: every slot read goes through a lookup
// that skips unset slots.
const kindUnset Kind = -1

// kindAccessor marks a property holding a host getter (in o) instead of
// data. It never escapes the VM either: every script-visible property
// read resolves it through VM.propValue, and Get reads it as undefined.
const kindAccessor Kind = -2

// Value is a JavaScript value. The zero Value is undefined.
type Value struct {
	kind Kind
	b    bool
	n    float64
	s    string
	o    *Object
}

// Constructors.

// Undefined returns the undefined value.
func Undefined() Value { return Value{} }

// Null returns the null value.
func Null() Value { return Value{kind: KindNull} }

// Bool wraps a Go bool.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Number wraps a float64.
func Number(n float64) Value { return Value{kind: KindNumber, n: n} }

// String wraps a Go string.
func String(s string) Value { return Value{kind: KindString, s: s} }

// ObjectValue wraps an object.
func ObjectValue(o *Object) Value { return Value{kind: KindObject, o: o} }

// Accessors.

// Kind reports the value kind.
func (v Value) Kind() Kind { return v.kind }

// IsUndefined reports whether the value is undefined.
func (v Value) IsUndefined() bool { return v.kind == KindUndefined }

// IsNullish reports null or undefined.
func (v Value) IsNullish() bool { return v.kind == KindUndefined || v.kind == KindNull }

// Object returns the underlying object (nil for non-objects).
func (v Value) Object() *Object {
	if v.kind == KindObject {
		return v.o
	}
	return nil
}

// Truthy implements JavaScript boolean coercion.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool:
		return v.b
	case KindNumber:
		return v.n != 0 && !math.IsNaN(v.n)
	case KindString:
		return v.s != ""
	case KindObject:
		return true
	default:
		return false
	}
}

// NumberValue implements ToNumber coercion.
func (v Value) NumberValue() float64 {
	switch v.kind {
	case KindNumber:
		return v.n
	case KindBool:
		if v.b {
			return 1
		}
		return 0
	case KindString:
		s := strings.TrimSpace(v.s)
		if s == "" {
			return 0
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	case KindNull:
		return 0
	default:
		return math.NaN()
	}
}

// StringValue implements ToString coercion.
func (v Value) StringValue() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindNumber:
		return formatNumber(v.n)
	case KindString:
		return v.s
	case KindObject:
		if v.o.IsArray() {
			parts := make([]string, len(v.o.elems))
			for i, e := range v.o.elems {
				if !e.IsNullish() {
					parts[i] = e.StringValue()
				}
			}
			return strings.Join(parts, ",")
		}
		if v.o.call {
			return "function " + v.o.name + "() { [code] }"
		}
		return "[object Object]"
	}
	return ""
}

func formatNumber(n float64) string {
	switch {
	case math.IsNaN(n):
		return "NaN"
	case math.IsInf(n, 1):
		return "Infinity"
	case math.IsInf(n, -1):
		return "-Infinity"
	case n == math.Trunc(n) && math.Abs(n) < 1e15:
		return strconv.FormatInt(int64(n), 10)
	default:
		return strconv.FormatFloat(n, 'g', -1, 64)
	}
}

// TypeOf implements the typeof operator.
func (v Value) TypeOf() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "object"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindObject:
		if v.o.call {
			return "function"
		}
		return "object"
	}
	return "undefined"
}

// Call is the invocation context passed to host functions.
type Call struct {
	VM   *VM
	This Value
	Args []Value
}

// Arg returns the i-th argument or undefined.
func (c *Call) Arg(i int) Value {
	if i < len(c.Args) {
		return c.Args[i]
	}
	return Undefined()
}

// HostFunc is a Go function exposed to scripts.
type HostFunc func(Call) (Value, error)

// Object is a JavaScript object: a property map, optionally array
// elements, optionally callable (script function or host function), an
// optional prototype link, and an opaque Host slot host integrations use
// to attach Go state (e.g. a *dom.Node).
type Object struct {
	props map[string]Value
	elems []Value // non-nil marks an array
	array bool

	// prototype is where a property read, `in` and for-in continue after
	// the own properties (nil ends the chain). Only embedders set it
	// (SetPrototype): scripts cannot reach a prototype, and every script
	// write lands on the written object itself.
	prototype *Object

	// Callable state: proto and cells (a script function compiled to
	// bytecode) or host.
	proto *funcProto
	cells []*cell // captured bindings of a bytecode closure
	host  HostFunc
	call  bool // true when callable
	name  string

	// version counts property-map writes (Set/Delete) and prototype
	// relinks. Inline caches in the bytecode VM validate against it;
	// wrap-around is harmless (a stale hit needs 2^32 writes between two
	// reads of the same site).
	version uint32

	// Host is arbitrary Go state attached by embedders.
	Host any
}

// NewObject returns an empty plain object.
func NewObject() *Object { return &Object{props: map[string]Value{}} }

// NewArray returns an array object with the given elements.
func NewArray(elems ...Value) *Object {
	return &Object{props: map[string]Value{}, elems: append([]Value{}, elems...), array: true}
}

// NewHostFunc wraps a Go function as a callable object. Its property map
// is allocated by the first Set, which most host functions never see.
func NewHostFunc(name string, f HostFunc) *Object {
	return &Object{host: f, call: true, name: name}
}

// NewInstance returns an empty object inheriting from proto with host
// state attached: the shape of a host-interface wrapper, whose
// operations and attributes live on proto. It allocates no property map
// until a script writes to it.
func NewInstance(proto *Object, host any) *Object {
	return &Object{prototype: proto, Host: host}
}

// IsArray reports whether the object is an array.
func (o *Object) IsArray() bool { return o.array }

// IsCallable reports whether the object can be invoked.
func (o *Object) IsCallable() bool { return o.call }

// Name returns the function name ("" for plain objects).
func (o *Object) Name() string { return o.name }

// Elems returns the array elements (nil for non-arrays).
func (o *Object) Elems() []Value { return o.elems }

// Append adds elements to an array object.
func (o *Object) Append(vals ...Value) { o.elems = append(o.elems, vals...) }

// Get reads an own data property. Inherited members and accessors read
// as undefined here; script property reads resolve both.
func (o *Object) Get(name string) Value {
	if o.array && name == "length" {
		return Number(float64(len(o.elems)))
	}
	if v, ok := o.props[name]; ok && v.kind != kindAccessor {
		return v
	}
	return Undefined()
}

// Has reports whether o has an own property name (hasOwnProperty).
func (o *Object) Has(name string) bool {
	_, ok := o.props[name]
	return ok
}

// findProp finds name on o's own properties or its prototype chain (the
// `in` operator's test). The slot may hold an accessor; VM.propValue
// resolves it.
func (o *Object) findProp(name string) (Value, bool) {
	for ; o != nil; o = o.prototype {
		if v, ok := o.props[name]; ok {
			return v, true
		}
	}
	return Undefined(), false
}

// SetPrototype links o to proto: property reads, `in` and for-in that
// miss o's own properties continue on proto's chain. Writes and deletes
// always act on o itself, so a script's own property shadows an
// inherited one. A link that would close a cycle panics.
func (o *Object) SetPrototype(proto *Object) {
	for p := proto; p != nil; p = p.prototype {
		if p == o {
			panic("jsvm: cyclic prototype chain")
		}
	}
	o.prototype = proto
	o.version++
}

// Prototype returns o's prototype link (nil when it has none).
func (o *Object) Prototype() *Object { return o.prototype }

// SetAccessor defines a host accessor property: reading name on o, or on
// any object inheriting from o, calls get with the reading object as
// This (a WebIDL attribute on an interface prototype). There is no
// setter: a script write of name creates an own data property on the
// written object.
func (o *Object) SetAccessor(name string, get HostFunc) {
	o.Set(name, Value{kind: kindAccessor, o: NewHostFunc(name, get)})
}

// Set writes a property.
func (o *Object) Set(name string, v Value) {
	if o.props == nil {
		o.props = map[string]Value{}
	}
	o.props[name] = v
	o.version++
}

// Delete removes a property (the delete operator).
func (o *Object) Delete(name string) {
	if o.props != nil {
		delete(o.props, name)
		o.version++
	}
}

// SetFunc attaches a host function property, a convenience for embedders.
func (o *Object) SetFunc(name string, f HostFunc) {
	o.Set(name, ObjectValue(NewHostFunc(name, f)))
}

// Keys returns the own property names, sorted (Object.keys and
// JSON.stringify order).
func (o *Object) Keys() []string {
	out := make([]string, 0, len(o.props))
	for k := range o.props {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// enumKeys returns the own and inherited property names, sorted and
// deduplicated (for-in order).
func (o *Object) enumKeys() []string {
	if o.prototype == nil {
		return o.Keys()
	}
	seen := map[string]bool{}
	var out []string
	for p := o; p != nil; p = p.prototype {
		for k := range p.props {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Index reads an array element (undefined when out of range).
func (o *Object) Index(i int) Value {
	if i >= 0 && i < len(o.elems) {
		return o.elems[i]
	}
	return Undefined()
}

// SetIndex writes an array element, growing the array as needed.
func (o *Object) SetIndex(i int, v Value) {
	for len(o.elems) <= i {
		o.elems = append(o.elems, Undefined())
	}
	o.elems[i] = v
}

// Error is a JavaScript runtime error carrying the thrown value.
type Error struct {
	Value Value
	Where string
}

func (e *Error) Error() string {
	msg := e.Value.StringValue()
	if o := e.Value.Object(); o != nil {
		if m := o.Get("message"); !m.IsUndefined() {
			msg = m.StringValue()
		}
	}
	if e.Where != "" {
		return fmt.Sprintf("jsvm: %s at %s", msg, e.Where)
	}
	return "jsvm: " + msg
}

// throwError builds a thrown error value.
func throwError(format string, args ...any) error {
	o := NewObject()
	o.Set("message", String(fmt.Sprintf(format, args...)))
	o.Set("name", String("Error"))
	return &Error{Value: ObjectValue(o)}
}
