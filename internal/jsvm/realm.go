package jsvm

import "math/bits"

// Binding is one global of a Realm: a name and the Go function that
// builds its value for one VM. Build runs at most once per VM, the
// first time something needs the value. It must return objects no other
// VM can reach and keep any per-VM state (a counter, a store) in fresh
// variables of its own, so every VM starts that state anew.
type Binding struct {
	Name  string
	Build func(vm *VM) Value
}

// Realm is an immutable table of global bindings, shared by every VM
// created from it. It holds only names and Go functions: no object is
// shared between VMs.
//
// A VM created from a realm (Realm.New) starts with an empty global
// object on which every binding is pending:
//   - A read that needs the value builds the binding and stores it as an
//     own property: a bare read, typeof, a member read such as
//     `window.Math`, Object.values, JSON.stringify or Go's Global.Get.
//   - `in`, hasOwnProperty, Object.keys and for-in see a pending name
//     without building it.
//   - A write (`window.x = v`, Go's Global.Set) or a delete retires a
//     pending name unbuilt.
//
// Building a binding is not a property write. It records nothing and
// leaves the object's version alone: the name was already observable as
// present, so no inline cache that saw the global object is stale. A
// script therefore cannot tell a pending binding from a built one, and
// inline-cache hits and misses are those of a realm built in full.
type Realm struct {
	bindings []Binding
	index    map[string]int
}

// NewRealm returns a realm holding base's bindings (base may be nil) and
// then bindings. A name bound twice panics.
func NewRealm(base *Realm, bindings ...Binding) *Realm {
	r := &Realm{index: map[string]int{}}
	if base != nil {
		r.bindings = append(r.bindings, base.bindings...)
	}
	r.bindings = append(r.bindings, bindings...)
	for i, b := range r.bindings {
		if _, dup := r.index[b.Name]; dup {
			panic("jsvm: realm binds " + b.Name + " twice")
		}
		r.index[b.Name] = i
	}
	return r
}

// New returns a VM whose global object starts from r with every binding
// pending, and host in its Host slot for the build functions to find.
func (r *Realm) New(host any) *VM {
	vm := &VM{Global: NewObject(), globals: map[string]*Value{}, Host: host}
	vm.pending = pendingGlobals{realm: r, vm: vm, bits: make([]uint64, (len(r.bindings)+63)/64)}
	for i := range r.bindings {
		vm.pending.bits[i/64] |= 1 << (i % 64)
	}
	vm.Global.pending = &vm.pending
	return vm
}

// pendingGlobals is the set of a VM's realm bindings not built yet.
type pendingGlobals struct {
	realm *Realm
	vm    *VM
	bits  []uint64 // bit i set: realm.bindings[i] is pending
}

// has reports whether name is a pending binding.
func (g *pendingGlobals) has(name string) bool {
	i, ok := g.realm.index[name]
	return ok && g.bits[i/64]&(1<<(i%64)) != 0
}

// retire drops name from the pending set and reports its binding index,
// or -1 when name was not pending.
func (g *pendingGlobals) retire(name string) int {
	i, ok := g.realm.index[name]
	if !ok || g.bits[i/64]&(1<<(i%64)) == 0 {
		return -1
	}
	g.bits[i/64] &^= 1 << (i % 64)
	return i
}

// appendNames appends the pending names to out, in no particular order.
func (g *pendingGlobals) appendNames(out []string) []string {
	for w, word := range g.bits {
		for ; word != 0; word &= word - 1 {
			out = append(out, g.realm.bindings[w*64+bits.TrailingZeros64(word)].Name)
		}
	}
	return out
}

// build builds the pending binding name onto o and returns its value; ok
// is false when name is not pending. The property is stored without a
// version bump (see Realm).
func (o *Object) build(name string) (v Value, ok bool) {
	g := o.pending
	i := g.retire(name)
	if i < 0 {
		return Undefined(), false
	}
	v = g.realm.bindings[i].Build(g.vm)
	if o.props == nil {
		o.props = map[string]Value{}
	}
	o.props[name] = v
	return v, true
}
