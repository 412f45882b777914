package jsvm

import (
	"reflect"
	"strings"
	"testing"
)

// windowRealm is the standard library plus window, the global object
// itself, as every page has it: scripts reach each global as a member too.
var windowRealm = NewRealm(Builtins(), Binding{Name: "window", Build: func(vm *VM) Value {
	return ObjectValue(vm.Global)
}})

// realmScripts observe globals through every path a script has: a bare
// read, typeof, `in`, hasOwnProperty, Object.keys, Object.values, for-in,
// JSON.stringify, member reads (static and computed), a member write, a
// bare write to a global (lost), delete, and a second read after each.
var realmScripts = []string{
	`Math.floor(2.5) + Math.max(1, 3)`,
	`typeof JSON + "," + typeof Date + "," + typeof NaN + "," + typeof nope`,
	`("Math" in window) + "," + ("nope" in window) + "," + window.hasOwnProperty("JSON") + "," + Math.abs(-1)`,
	`Object.keys(window).join(",")`,
	`var s = ""; for (var k in window) { s += k + ";" } s`,
	`var n = 0; for (var k in window) { if (window[k] !== undefined) { n++ } } n`,
	`Object.values(window).length`,
	`JSON.stringify(window).length + "," + JSON.stringify(window).slice(0, 80)`,
	`window.Math === Math && window["Math"] === Math`,
	`window.Math = 1; Math + "," + typeof Math + "," + window.Math`,
	`Math = 1; typeof Math + "," + typeof window.Math`,
	`JSON = 2; var t = typeof JSON; window.JSON = 3; t + "," + JSON`,
	`delete window.JSON; typeof JSON + "," + ("JSON" in window) + "," + Object.keys(window).length`,
	`delete window.Date; Date.now()`,
	`delete Math; typeof Math`,
	`var before = Object.keys(window).length; window.x = 1; Object.keys(window).length - before`,
	`window.Math = 1; window.JSON = 2; Object.keys(window).join(",") + "|" + Object.values(window).length`,
	`x = 5; window.x + Object.keys(window).indexOf("x")`,
	`var Math = 7; Math + "," + typeof window.Math`,
	`function f() { return Math.abs(-2) } var t = 0; for (var i = 0; i < 5; i++) { t += f() } t`,
	`var a = Math; var b = JSON; var c = Math; window.y = 1; var d = Math; (a === c) + "," + (c === d) + "," + typeof b`,
	`var s = 0; for (var i = 0; i < 4; i++) { s += window.Math.abs(-i); if (i == 2) { window.z = i } } s`,
	`probe(typeof parseInt, parseInt("42"), isNaN(NaN), Infinity); String(Number("3") + 1)`,
	`Math.random() + "," + Math.random() + "," + Date.now() + "," + new Date().getTime()`,
	`encodeURIComponent("a b") + decodeURIComponent("%41") + Boolean(1) + Array.isArray([]) + Object.keys({q: 1})`,
	`try { new Error("e").missing.x } catch (e) { e.message }`,
	`HOSTVAL = 9; HOSTVAL + typeof HOSTOBJ.m + ("HOSTVAL" in window)`,
}

// compareRealms asserts that a script's run on a lazy realm and on one
// built in full are observably identical, inline-cache traffic included.
func compareRealms(t *testing.T, src string, lazy, built diffOutcome) {
	t.Helper()
	if !reflect.DeepEqual(lazy, built) {
		t.Errorf("%q: lazy and fully built realms differ:\n  lazy:  %+v\n  built: %+v", src, lazy, built)
	}
}

// TestRealmIsUnobservable runs each script on a fresh VM and on one whose
// realm was built in full first: completion value, error, host-call log
// and inline-cache hits and misses must be equal.
func TestRealmIsUnobservable(t *testing.T) {
	for _, src := range realmScripts {
		lazy := runEngineDiffOn(windowRealm.New(nil), src, engineBytecode, 0)
		built := runEngineDiffOn(windowRealm.New(nil), src, engineBuilt, 0)
		compareRealms(t, src, lazy, built)
	}
}

// TestRealmValues pins what the observation paths return, so the lazy
// and built realms cannot agree on a wrong answer.
func TestRealmValues(t *testing.T) {
	cases := []struct{ src, want string }{
		{`("Math" in window) + "," + ("nope" in window) + "," + window.hasOwnProperty("JSON")`, "string:true,false,true"},
		{`Object.keys(window).join(",")`, "string:Array,Boolean,Date,Error,HOSTOBJ,HOSTOBJ2,HOSTVAL,Infinity,JSON,Math,NaN,Number,Object," +
			"String,decodeURIComponent,encodeURIComponent,isNaN,parseFloat,parseInt,probe,protoSet,window"},
		{`Math = 1; typeof Math`, "string:object"},
		{`window.Math = 1; Math + "," + typeof window.Math`, "string:1,number"},
		{`delete window.JSON; typeof JSON + "," + ("JSON" in window)`, "string:undefined,false"},
		{`window.Math === Math`, "boolean:true"},
	}
	for _, eng := range []engine{engineBytecode, engineBuilt, engineAST} {
		for _, c := range cases {
			if out := runEngineDiffOn(windowRealm.New(nil), c.src, eng, 0); out.errStr != "" || out.val != c.want {
				t.Errorf("%v: %s = %q (err %q), want %q", eng, c.src, out.val, out.errStr, c.want)
			}
		}
	}
	if out := runEngineDiffOn(windowRealm.New(nil), `delete window.Date; Date.now()`, engineBytecode, 0); out.errStr != "jsvm: Date is not defined" {
		t.Errorf("read after delete: err = %q", out.errStr)
	}
}

// TestRealmDifferentialCorpus runs the engine differential corpus and the
// generated programs on the lazy and the fully built realm.
func TestRealmDifferentialCorpus(t *testing.T) {
	srcs := append([]string(nil), differentialCorpus...)
	for seed := uint64(1); seed <= 100; seed++ {
		g := &diffGen{state: seed * 0x9e3779b97f4a7c15}
		srcs = append(srcs, g.program())
	}
	for _, src := range srcs {
		compareRealms(t, src, runEngineDiff(src, engineBytecode, 200_000), runEngineDiff(src, engineBuilt, 200_000))
	}
}

// TestRealmBuildsOnlyWhatIsRead pins the laziness itself: a fresh VM's
// global object holds no property, `in`, hasOwnProperty, Object.keys and
// for-in build nothing, a write or delete retires a name unbuilt, and a
// build bumps no version.
func TestRealmBuildsOnlyWhatIsRead(t *testing.T) {
	vm := windowRealm.New(nil)
	if len(vm.Global.props) != 0 {
		t.Fatalf("fresh global object holds %d properties", len(vm.Global.props))
	}
	if _, err := vm.Run(`var w = window, k = Object.keys;
var s = ("Math" in w) + w.hasOwnProperty("JSON") + k(w).length;
for (var n in w) { s += n.length }
w.Date = 1; delete w.Error; Math = 2;`); err != nil {
		t.Fatal(err)
	}
	var built []string
	for name := range vm.Global.props {
		built = append(built, name)
	}
	keys := vm.Global.Keys()
	if got := strings.Join(keys, ","); strings.Contains(got, "Error") {
		t.Errorf("deleted binding still listed: %s", got)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			t.Errorf("%s listed twice", keys[i])
		}
	}
	// window and Object were read; Date was written.
	want := map[string]bool{"window": true, "Object": true, "Date": true}
	for _, name := range built {
		if !want[name] {
			t.Errorf("%s was built, but the script only tested for it (built: %v)", name, built)
		}
	}
	if vm.Global.props["Date"].NumberValue() != 1 {
		t.Errorf("window.Date = %v, want the written 1", vm.Global.props["Date"])
	}
	// The write of Date and the delete of Error bump the version; the
	// builds of window and Object do not.
	if vm.Global.version != 2 {
		t.Errorf("global version = %d, want 2 (one write, one delete)", vm.Global.version)
	}
}

// TestRealmSharesNoObject builds two VMs' realms in full and walks every
// object reachable from each global object: no object may be reachable
// from both, and per-VM state starts afresh on each.
func TestRealmSharesNoObject(t *testing.T) {
	a, b := windowRealm.New(nil), windowRealm.New(nil)
	buildRealm(a)
	buildRealm(b)
	seen := map[*Object]bool{}
	reachable(a.Global, seen)
	inA := seen
	seen = map[*Object]bool{}
	reachable(b.Global, seen)
	for o := range seen {
		if inA[o] {
			t.Errorf("object %q reachable from two VMs", o.name)
		}
	}
	if len(seen) < 30 {
		t.Errorf("walk reached only %d objects", len(seen))
	}

	// Math.random and Date.now start from the same values on every VM,
	// whenever their binding is built, and a write to a builtin stays on
	// its VM.
	const probe = `Math.random() + "," + Date.now() + "," + typeof JSON.x`
	first, err := a.Run(`JSON.x = 1; ` + probe)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range []*VM{b, New(), windowRealm.New(nil)} {
		got, err := vm.Run(probe)
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.Replace(first.StringValue(), "number", "undefined", 1); got.StringValue() != want {
			t.Errorf("second VM: %s, want %s", got.StringValue(), want)
		}
	}
}

// reachable adds o and every object reachable from it through
// properties, array elements, prototypes, accessors and closure cells.
func reachable(o *Object, seen map[*Object]bool) {
	if o == nil || seen[o] {
		return
	}
	seen[o] = true
	visit := func(v Value) {
		if v.o != nil {
			reachable(v.o, seen)
		}
	}
	for _, v := range o.props {
		visit(v)
	}
	for _, v := range o.elems {
		visit(v)
	}
	for _, c := range o.cells {
		visit(c.v)
	}
	reachable(o.prototype, seen)
}
