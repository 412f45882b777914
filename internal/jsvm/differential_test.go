package jsvm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// differentialCorpus collects programs exercising every language feature
// the engines support, including the semantic quirks both must replicate
// (execution-time var declaration, lost writes to Global-object-backed
// names, finally overriding control flow). Every entry runs on both
// engines and must produce identical results, errors and host-visible
// side effects.
var differentialCorpus = []string{
	// Arithmetic, precedence, coercion.
	`1 + 2 * 3`,
	`(1 + 2) * 3 - 10 % 4`,
	`"n=" + 5 + 1`,
	`1 < 2 ? "a" : "b"`,
	`7 & 3 | 8 ^ 1`,
	`1 << 4 >> 2`,
	`4294967296 >>> 0`,
	`~5 + +"42" + -"3"`,
	`1 == "1"`,
	`1 === "1"`,
	`null == undefined`,
	`null === undefined`,
	`({}) === ({})`,
	`null ?? "fallback"`,
	`0 ?? "fallback"`,
	`0 || "x"`,
	`"y" && 0`,
	`"a" in ({a: 1})`,
	`"b" in ({a: 1})`,
	`({}) instanceof Object`,
	`typeof 1 + typeof "s" + typeof null + typeof undefined + typeof {} + typeof function(){}`,
	`(1, 2, 3)`,
	`void 0 + ""`,
	// Strings.
	`"a,b,c".split(",").join("-")`,
	`"abcdef".slice(1, 3) + "abcdef".slice(-2)`,
	`"hello".replace("l", "L") + "hello".replaceAll("l", "L")`,
	`"abc".charCodeAt(0) + "abc".indexOf("c") + "hello".length`,
	`"  x ".trim().toUpperCase()`,
	// Variables, scope, closures.
	`var x = 1; function outer() { var x = 2; function inner() { return x + 1 } return inner() } outer() + x`,
	`function counter() { var n = 0; return function() { n = n + 1; return n } } var c = counter(); c(); c(); c()`,
	`function mk(i) { return function() { return i } } var fns = []; for (var i = 0; i < 3; i++) { fns.push(mk(i)) } fns[0]() + fns[1]() + fns[2]()`,
	`var x = 5; var y = x++; y + "," + x`,
	`var x = 5; var y = ++x; y + "," + x`,
	`var x = 10; x -= 3; x *= 2; x /= 7; x %= 2; x`,
	// Execution-time var declaration: the assignment before the var
	// statement runs lands on the Global object as an implicit global.
	`function f() { x = 5; var x; return typeof x } f()`,
	`function g() { if (false) { var v = 1 } return typeof v } g()`,
	// Lost write: HOSTVAL is pre-seeded on the Global object by the
	// harness; writes through the scope chain reach only a copied box.
	`HOSTVAL = 9; HOSTVAL`,
	`typeof HOSTVAL`,
	// Control flow.
	`var sum = 0; for (var i = 0; i < 10; i++) { if (i % 2 === 0) { continue } if (i > 7) { break } sum += i } sum`,
	`var n = 0; while (n < 5) { n++ } n`,
	`var s = ""; for (var k in {b: 2, a: 1, c: 3}) { s += k } s`,
	`var t = 0; for (var v of [1, 2, 3]) { t += v } t`,
	`var s = ""; for (var ch of "abc") { s = ch + s } s`,
	`var s = ""; for (var ix in [9, 8, 7]) { s += ix } s`,
	`var out = ""; for (var a = 0; a < 3; a++) { for (var b = 0; b < 3; b++) { if (b > a) { continue } out += "" + a + b } } out`,
	`var r = ""; outerdone: for (var i = 0; i < 3; i++) { r += i } r`,
	// Objects and arrays.
	`var o = {name: "x", nested: {deep: [1, 2, 3]}}; o.nested.deep[1] + o.nested.deep.length`,
	`var a = []; a.push(1); a.push(2, 3); a.pop() + a.length`,
	`[3, 1, 2].sort().join("") + [3, 1, 2].sort(function(x, y) { return y - x }).join("")`,
	`[1, 2, 3, 4].filter(function(x) { return x % 2 === 0 }).map(function(x) { return x * 10 }).join(",")`,
	`[1, 2, 3].reduce(function(a, b) { return a + b }, 10)`,
	`var s = 0; [1, 2, 3].forEach(function(v, i) { s += v * (i + 1) }); s`,
	`Object.keys({b: 1, a: 2}).join(",") + "|" + Object.values({b: 1, a: 2}).join(",")`,
	`var o = {a: 1}; delete o.a; o.hasOwnProperty("a") + "," + ("a" in o)`,
	`var o = {}; o["k" + 1] = 7; o.k1`,
	`var a = [1]; a[3] = 9; a.length + "," + (a[2] + "")`,
	`var o = {n: 41, get: function() { return this.n + 1 }}; o.get()`,
	`function who() { return this.name } who.call({name: "called"}) + who.apply({name: "applied"})`,
	`function Point(x) { this.x = x } var p = new Point(3); p.x`,
	`function Ret() { this.a = 1; return {b: 2} } new Ret().b`,
	// Compound member assignment evaluates the object once per access.
	`var o = {n: 1}; o.n += 2; o.n++; o.n`,
	`var a = [5]; a[0] *= 3; --a[0]; a[0]`,
	// try/catch/finally.
	`var r = "none"; try { throw new Error("boom") } catch (e) { r = e.message } r`,
	`var log = []; try { log.push("t"); undefinedFunction() } catch (e) { log.push("c") } finally { log.push("f") } log.join("")`,
	`function f() { try { return "try" } finally { probe("fin") } } f()`,
	`function f() { try { return "try" } finally { return "fin" } } f()`,
	`var s = ""; for (var i = 0; i < 3; i++) { try { if (i === 1) { continue } s += i } finally { s += "f" } } s`,
	`var s = ""; for (var i = 0; i < 9; i++) { try { if (i === 1) { break } s += i } finally { s += "f" } } s`,
	`var r; try { try { throw new Error("inner") } finally { probe("f1") } } catch (e) { r = e.message } r`,
	`var r = ""; try { r += "a" } catch (e) { r += "c" } r`,
	// IIFE and functions as values.
	`(function(d, s, id) { return d + s + id }("a", "b", "c"))`,
	`function add(a, b) { return a + b } add(2)`,
	`function f() { return arguments.length + "," + arguments[1] } f(9, 8, 7)`,
	`var fn = function named() { return 1 }; fn()`,
	// Built-in globals.
	`JSON.stringify({b: 1, a: [true, null, "x"]})`,
	`JSON.parse('{"k": [1, 2.5], "s": "v"}').k[1]`,
	`Math.floor(3.7) + Math.max(1, 5, 2) + Math.pow(2, 5)`,
	`parseInt("42abc") + parseInt("ff", 16) + parseFloat("2.5x")`,
	`isNaN("abc") + "," + isNaN(5)`,
	`encodeURIComponent("a b&c") + decodeURIComponent("%20")`,
	`(3.14159).toFixed(2) + (255).toString()`,
	`String(12) + Number("3") + Boolean(0)`,
	// Host-visible side effects: the probe log must be identical.
	`probe("one"); probe(1 + 1); probe({k: "v"}); "done"`,
	`for (var i = 0; i < 3; i++) { probe("i" + i) } "ok"`,
	`function f(x) { probe(x); return x * 2 } f(f(2))`,
	`try { probe("t"); throw new Error("e") } catch (e) { probe("c:" + e.message) } "ok"`,
	// Errors must match exactly.
	`neverDeclared + 1`,
	`null.prop`,
	`undefined.x`,
	`var o; o.x`,
	`notAFunction()`,
	`var o = {}; o.missing()`,
	`new 5`,
	`throw new Error("fatal")`,
	`throw "bare string"`,
	// Dynamic member access.
	`var o = {ab: 1}; var k = "a"; o[k + "b"]`,
	`var a = [10, 20, 30]; var i = 1; a[i] + a[i + 1]`,
	`var o = {}; var k = "x"; o[k] = 5; delete o[k]; typeof o[k]`,
	// Host prototypes and accessors: HOSTOBJ and HOSTOBJ2 inherit m, k and
	// the read-counting accessor acc from one prototype seeded by the
	// harness. Repeated reads at one site exercise the inline cache, which
	// must call the accessor on every hit.
	`HOSTOBJ.k + "," + HOSTOBJ.m("x") + "," + HOSTOBJ2.m("y")`,
	`HOSTOBJ.acc + "," + HOSTOBJ2.acc + "," + HOSTOBJ.acc`,
	`var s = ""; for (var i = 0; i < 4; i++) { s += HOSTOBJ.acc + ";" } s`,
	`HOSTOBJ["acc"] + HOSTOBJ["k"] + HOSTOBJ["m"]("d")`,
	`HOSTOBJ.m === HOSTOBJ2.m`,
	`typeof HOSTOBJ.m + typeof HOSTOBJ.acc + typeof HOSTOBJ.nope`,
	`("acc" in HOSTOBJ) + "," + ("m" in HOSTOBJ) + "," + ("nope" in HOSTOBJ) + "," + HOSTOBJ.hasOwnProperty("m")`,
	`var s = ""; for (var k in HOSTOBJ) { s += k + "," } s`,
	`HOSTOBJ.own = 1; var s = ""; for (var k in HOSTOBJ) { s += k + "," } s + Object.keys(HOSTOBJ).join("+") + JSON.stringify(HOSTOBJ)`,
	`HOSTOBJ.acc = "mine"; HOSTOBJ.k = "own"; HOSTOBJ.acc + "," + HOSTOBJ.k + "," + HOSTOBJ2.k + "," + HOSTOBJ2.acc`,
	`HOSTOBJ.k = "own"; delete HOSTOBJ.k; HOSTOBJ.k`,
	`function read(o) { return o.k } read(HOSTOBJ) + read(HOSTOBJ2) + read(HOSTOBJ)`,
	`function read() { return HOSTOBJ.k } var a = read(); protoSet("k", "changed"); a + "," + read()`,
	`function read() { return HOSTOBJ.k } var a = read(); HOSTOBJ.k = "own"; a + "," + read()`,
	`HOSTOBJ.m.call(HOSTOBJ2, "c") + HOSTOBJ.toString()`,
	`var f = HOSTOBJ.m; f("z")`,
}

// diffOutcome is everything observable about one engine's execution.
type diffOutcome struct {
	val    string
	errStr string
	budget bool
	log    []string
}

// engine runs a script on a VM: the production bytecode VM (VM.Run) or
// the reference tree walker (walker_test.go).
type engine struct {
	name string
	run  func(vm *VM, src string) (Value, error)
}

func (e engine) String() string { return e.name }

var (
	engineBytecode = engine{"bytecode", (*VM).Run}
	engineAST      = engine{"ast", func(vm *VM, src string) (Value, error) { return newWalker(vm).run(src) }}
)

// runEngineDiff executes src on a fresh VM with one engine, capturing the
// result, error and host-call log.
func runEngineDiff(src string, eng engine, maxSteps int) diffOutcome {
	vm := New()
	vm.MaxSteps = maxSteps
	var out diffOutcome
	vm.Global.Set("HOSTVAL", Number(7))
	installHostProto(vm)
	vm.Global.SetFunc("probe", func(c Call) (Value, error) {
		parts := make([]string, len(c.Args))
		for i, a := range c.Args {
			parts[i] = a.TypeOf() + ":" + a.StringValue()
		}
		out.log = append(out.log, strings.Join(parts, "|"))
		return Undefined(), nil
	})
	v, err := eng.run(vm, src)
	if err != nil {
		out.errStr = err.Error()
		out.budget = errors.Is(err, ErrStepBudget)
		return out
	}
	out.val = v.TypeOf() + ":" + v.StringValue()
	return out
}

// installHostProto seeds HOSTOBJ and HOSTOBJ2, two instances of one host
// prototype carrying an operation (m), a data member (k) and an accessor
// (acc) that counts its reads: the shape browsersim gives DOM wrappers.
// protoSet(name, v) rewrites a prototype member, which scripts otherwise
// cannot reach.
func installHostProto(vm *VM) {
	proto := NewObject()
	proto.Set("k", String("inherited"))
	hostOf := func(c Call) (string, error) {
		if o := c.This.Object(); o != nil {
			if h, ok := o.Host.(string); ok {
				return h, nil
			}
		}
		return "", throwError("Illegal invocation")
	}
	proto.SetFunc("m", func(c Call) (Value, error) {
		h, err := hostOf(c)
		if err != nil {
			return Undefined(), err
		}
		return String(h + ":" + c.Arg(0).StringValue()), nil
	})
	reads := 0
	proto.SetAccessor("acc", func(c Call) (Value, error) {
		h, err := hostOf(c)
		if err != nil {
			return Undefined(), err
		}
		reads++
		return String(fmt.Sprintf("%s#%d", h, reads)), nil
	})
	vm.Global.Set("HOSTOBJ", ObjectValue(NewInstance(proto, "h1")))
	vm.Global.Set("HOSTOBJ2", ObjectValue(NewInstance(proto, "h2")))
	vm.Global.SetFunc("protoSet", func(c Call) (Value, error) {
		proto.Set(c.Arg(0).StringValue(), c.Arg(1))
		return Undefined(), nil
	})
}

// compareOutcomes asserts two engine runs are observably identical.
// Step-budget kills compare by class (the two engines count different
// units, so the reported line may differ); all other errors compare
// byte-for-byte.
func compareOutcomes(t *testing.T, src string, ast, bc diffOutcome) {
	t.Helper()
	if ast.budget || bc.budget {
		if ast.budget != bc.budget {
			t.Errorf("%q: budget kill mismatch: ast=%v bytecode=%v (errs %q vs %q)",
				src, ast.budget, bc.budget, ast.errStr, bc.errStr)
		}
		return
	}
	if ast.errStr != bc.errStr {
		t.Errorf("%q: error mismatch:\n  ast:      %q\n  bytecode: %q", src, ast.errStr, bc.errStr)
		return
	}
	if ast.val != bc.val {
		t.Errorf("%q: result mismatch:\n  ast:      %q\n  bytecode: %q", src, ast.val, bc.val)
	}
	if strings.Join(ast.log, "\n") != strings.Join(bc.log, "\n") {
		t.Errorf("%q: host-call log mismatch:\n  ast:      %v\n  bytecode: %v", src, ast.log, bc.log)
	}
}

func TestDifferentialCorpus(t *testing.T) {
	for _, src := range differentialCorpus {
		ast := runEngineDiff(src, engineAST, 0)
		bc := runEngineDiff(src, engineBytecode, 0)
		compareOutcomes(t, src, ast, bc)
	}
}

// TestDifferentialCorpusLowers pins that every corpus program that parses
// also lowers to bytecode (a lowering error would fail both engines alike
// and make the differential comparison vacuous).
func TestDifferentialCorpusLowers(t *testing.T) {
	for _, src := range differentialCorpus {
		if _, err := parseProgram(src); err != nil {
			continue // parse-error entries exercise the error path instead
		}
		if _, err := Compile(src); err != nil {
			t.Errorf("%q: lowering failed: %v", src, err)
		}
	}
}

// TestDifferentialStepBudget runs budget-bounded programs on both
// engines and asserts both kill the script (the bytecode engine charges
// per instruction against MaxSteps*bcStepFactor, calibrated to fire at
// the same effective budget).
func TestDifferentialStepBudget(t *testing.T) {
	cases := []string{
		`while (true) { var x = 1; }`,
		`for (;;) {}`,
		`function f() { return f() } f()`,
		`var i = 0; while (true) { i += 1; probe(i > 1e9); }`,
	}
	for _, src := range cases {
		for _, budget := range []int{500, 50_000} {
			ast := runEngineDiff(src, engineAST, budget)
			bc := runEngineDiff(src, engineBytecode, budget)
			if !ast.budget {
				t.Errorf("%q (budget %d): ast engine did not hit the step budget: %q", src, budget, ast.errStr)
			}
			if !bc.budget {
				t.Errorf("%q (budget %d): bytecode engine did not hit the step budget: %q", src, budget, bc.errStr)
			}
		}
	}
}

// TestDifferentialBudgetSurvivors pins that the conversion factor does
// not make the bytecode engine stricter: programs sized well inside an
// AST budget also finish under the bytecode budget.
func TestDifferentialBudgetSurvivors(t *testing.T) {
	src := `var t = 0; for (var i = 0; i < 100; i++) { t += i } t`
	for _, eng := range []engine{engineAST, engineBytecode} {
		out := runEngineDiff(src, eng, 50_000)
		if out.errStr != "" {
			t.Errorf("engine %v: %q", eng, out.errStr)
		}
		if out.val != "number:4950" {
			t.Errorf("engine %v: got %q", eng, out.val)
		}
	}
}

// genProgram deterministically generates a program from a seed using a
// splitmix-style PRNG. It only emits constructs both engines define
// identically (bounded loops, closures, member access, try/catch,
// string/number arithmetic) so any divergence is an engine bug.
type diffGen struct{ state uint64 }

func (g *diffGen) next() uint64 {
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *diffGen) intn(n int) int { return int(g.next() % uint64(n)) }

func (g *diffGen) expr(depth int) string {
	if depth <= 0 {
		switch g.intn(6) {
		case 0:
			return fmt.Sprintf("%d", g.intn(100))
		case 1:
			return fmt.Sprintf("%q", string(rune('a'+g.intn(26))))
		case 2:
			return "v" + fmt.Sprint(g.intn(3))
		case 3:
			return "true"
		case 4:
			return "null"
		default:
			return fmt.Sprintf("%d.%d", g.intn(10), g.intn(10))
		}
	}
	switch g.intn(10) {
	case 0:
		return "(" + g.expr(depth-1) + " + " + g.expr(depth-1) + ")"
	case 1:
		return "(" + g.expr(depth-1) + " * " + g.expr(depth-1) + ")"
	case 2:
		return "(" + g.expr(depth-1) + " < " + g.expr(depth-1) + ")"
	case 3:
		return "(" + g.expr(depth-1) + " === " + g.expr(depth-1) + ")"
	case 4:
		return "(" + g.expr(depth-1) + " ? " + g.expr(depth-1) + " : " + g.expr(depth-1) + ")"
	case 5:
		return "[" + g.expr(depth-1) + ", " + g.expr(depth-1) + "].join(\",\")"
	case 6:
		return "({k: " + g.expr(depth-1) + "}).k"
	case 7:
		return "(function(a) { return a + " + g.expr(depth-1) + " })(" + g.expr(depth-1) + ")"
	case 8:
		return "typeof " + g.expr(depth-1)
	default:
		return "(\"\" + " + g.expr(depth-1) + ").length"
	}
}

func (g *diffGen) stmt(depth int) string {
	switch g.intn(7) {
	case 0:
		return fmt.Sprintf("v%d = %s;", g.intn(3), g.expr(depth))
	case 1:
		return fmt.Sprintf("if (%s) { %s } else { %s }", g.expr(depth-1), g.stmt(depth-1), g.stmt(depth-1))
	case 2:
		n := g.intn(5) + 1
		return fmt.Sprintf("for (var i%d = 0; i%d < %d; i%d++) { %s }", depth, depth, n, depth, g.stmt(depth-1))
	case 3:
		return fmt.Sprintf("try { %s } catch (e) { probe(\"c\") }", g.stmt(depth-1))
	case 4:
		return "probe(" + g.expr(depth) + ");"
	case 5:
		return fmt.Sprintf("v%d = v%d + %s;", g.intn(3), g.intn(3), g.expr(depth-1))
	default:
		return fmt.Sprintf("arr.push(%s);", g.expr(depth-1))
	}
}

func (g *diffGen) program() string {
	var b strings.Builder
	b.WriteString("var v0 = 1, v1 = \"s\", v2 = 0; var arr = [];\n")
	for n := g.intn(6) + 2; n > 0; n-- {
		b.WriteString(g.stmt(2))
		b.WriteString("\n")
	}
	b.WriteString("probe(v0, v1, v2, arr.join(\"|\"));\n")
	b.WriteString("\"\" + v0 + v1 + v2 + arr.length")
	return b.String()
}

// TestDifferentialGenerated feeds a fixed block of generator seeds
// through both engines. Deterministic: failures reproduce by seed.
func TestDifferentialGenerated(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		g := &diffGen{state: seed * 0x9e3779b97f4a7c15}
		src := g.program()
		ast := runEngineDiff(src, engineAST, 200_000)
		bc := runEngineDiff(src, engineBytecode, 200_000)
		compareOutcomes(t, fmt.Sprintf("seed %d: %s", seed, src), ast, bc)
	}
}

// FuzzDifferentialEngines is the open-ended form: the fuzzer explores
// generator seeds, each expanded into a safe random program executed on
// both engines.
func FuzzDifferentialEngines(f *testing.F) {
	for seed := uint64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		g := &diffGen{state: seed*0x9e3779b97f4a7c15 + 1}
		src := g.program()
		ast := runEngineDiff(src, engineAST, 200_000)
		bc := runEngineDiff(src, engineBytecode, 200_000)
		compareOutcomes(t, src, ast, bc)
	})
}
