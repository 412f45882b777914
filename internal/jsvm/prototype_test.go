package jsvm

import (
	"strings"
	"testing"
)

// TestHostPrototypeSemantics pins the values the host-prototype corpus
// entries produce (the differential tests only pin that both engines
// agree).
func TestHostPrototypeSemantics(t *testing.T) {
	cases := []struct{ src, want string }{
		{`HOSTOBJ.k + "," + HOSTOBJ.m("x") + "," + HOSTOBJ2.m("y")`, "string:inherited,h1:x,h2:y"},
		{`var s = ""; for (var i = 0; i < 3; i++) { s += HOSTOBJ.acc + ";" } s`, "string:h1#1;h1#2;h1#3;"},
		{`HOSTOBJ.m === HOSTOBJ2.m`, "boolean:true"},
		{`("acc" in HOSTOBJ) + "," + HOSTOBJ.hasOwnProperty("acc")`, "string:true,false"},
		{`HOSTOBJ.own = 1; var s = ""; for (var k in HOSTOBJ) { s += k + "," } s + Object.keys(HOSTOBJ).join("+")`, "string:acc,k,m,own,own"},
		{`HOSTOBJ.acc = "mine"; HOSTOBJ.acc + "," + HOSTOBJ2.acc`, "string:mine,h2#1"},
		{`function read() { return HOSTOBJ.k } var a = read(); protoSet("k", "changed"); a + "," + read()`, "string:inherited,changed"},
		{`function read() { return HOSTOBJ.k } var a = read(); HOSTOBJ.k = "own"; a + "," + read()`, "string:inherited,own"},
	}
	for _, eng := range []engine{engineAST, engineBytecode} {
		for _, c := range cases {
			if out := runEngineDiff(c.src, eng, 0); out.errStr != "" || out.val != c.want {
				t.Errorf("%v: %s = %q (err %q), want %q", eng, c.src, out.val, out.errStr, c.want)
			}
		}
	}
	if out := runEngineDiff(`var f = HOSTOBJ.m; f("z")`, engineBytecode, 0); !strings.Contains(out.errStr, "Illegal invocation") {
		t.Errorf("detached call: err = %q", out.errStr)
	}
}

// TestInlineCacheInheritedMatchesOwn pins that a member found on the
// immediate prototype caches exactly like an own member: same hits,
// same misses, so jsvm_inline_cache_total does not depend on whether a
// host keeps its members on each instance or on a prototype.
func TestInlineCacheInheritedMatchesOwn(t *testing.T) {
	const src = `var t = 0; for (var i = 0; i < 20; i++) { if (o.f(i) > 5) { t += o.n } } t`
	stats := func(inherited bool) (uint64, uint64, string) {
		vm := New()
		holder := NewObject()
		holder.SetFunc("f", func(c Call) (Value, error) { return c.Arg(0), nil })
		holder.Set("n", Number(2))
		o := holder
		if inherited {
			o = NewInstance(holder, nil)
		}
		vm.Global.Set("o", ObjectValue(o))
		v, err := vm.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		h, m := vm.ICStats()
		return h, m, v.StringValue()
	}
	oh, om, ov := stats(false)
	ih, im, iv := stats(true)
	if ov != "28" || iv != ov {
		t.Errorf("results: own %s, inherited %s, want 28", ov, iv)
	}
	if ih != oh || im != om {
		t.Errorf("inline cache: inherited %d hits / %d misses, own %d / %d", ih, im, oh, om)
	}
}

func TestGetAndHasAreOwnOnly(t *testing.T) {
	proto := NewObject()
	proto.Set("k", String("v"))
	proto.SetAccessor("acc", func(Call) (Value, error) { return String("x"), nil })
	inst := NewInstance(proto, nil)
	if inst.Has("k") || !inst.Get("k").IsUndefined() {
		t.Error("Has/Get see an inherited member")
	}
	if !proto.Has("acc") || !proto.Get("acc").IsUndefined() {
		t.Error("Get returned an accessor slot as data")
	}
	if _, ok := inst.findProp("acc"); !ok || inst.Prototype() != proto {
		t.Error("prototype link lost")
	}
}

func TestSetPrototypeRejectsCycle(t *testing.T) {
	a, b := NewObject(), NewObject()
	b.SetPrototype(a)
	defer func() {
		if recover() == nil {
			t.Error("cyclic prototype chain accepted")
		}
	}()
	a.SetPrototype(b)
}
