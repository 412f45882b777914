package jsvm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func TestCompileAndRunProgram(t *testing.T) {
	prog, err := Compile(`var x = 2; function double(n) { return n * 2 } double(x) + 1`)
	if err != nil {
		t.Fatal(err)
	}
	vm := New()
	v, err := vm.RunProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumberValue() != 5 {
		t.Errorf("result = %v, want 5", v.NumberValue())
	}
}

func TestProgramReusableAcrossVMs(t *testing.T) {
	prog, err := Compile(`var counter = 0; function inc() { counter++; return counter } inc(); inc()`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		vm := New()
		v, err := vm.RunProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		// Each VM gets fresh globals: the counter restarts every time.
		if v.NumberValue() != 2 {
			t.Errorf("run %d: result = %v, want 2", i, v.NumberValue())
		}
	}
}

func TestProgramConcurrentVMs(t *testing.T) {
	// One immutable Program shared by many VMs running at once: the
	// -race job asserts the share is sound.
	prog, err := Compile(`
		var hosts = [];
		function track(h) { hosts.push(h) }
		for (var i = 0; i < 50; i++) { track("host" + i) }
		hosts.length
	`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				vm := New()
				v, err := vm.RunProgram(prog)
				if err != nil {
					errs[w] = err
					return
				}
				if v.NumberValue() != 50 {
					errs[w] = fmt.Errorf("result = %v, want 50", v.NumberValue())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCacheHitsAndMisses(t *testing.T) {
	c := NewCache()
	p1, err := c.Compile(`1 + 1`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Compile(`1 + 1`)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("identical source compiled to distinct programs")
	}
	if _, err := c.Compile(`2 + 2`); err != nil {
		t.Fatal(err)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 1 / 2", hits, misses)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestCacheDoesNotCacheParseErrors(t *testing.T) {
	c := NewCache()
	if _, err := c.Compile(`function (`); err == nil {
		t.Fatal("bad source compiled")
	}
	if c.Len() != 0 {
		t.Errorf("parse failure was cached (Len = %d)", c.Len())
	}
}

// TestCacheCompilesEachSourceOnce releases concurrent first sights of one
// source at once: they must share a single compile, so the compile
// counter (and the miss count) read 1 however the goroutines interleave.
// The source is long enough that its compile overlaps the other
// goroutines' lookups.
func TestCacheCompilesEachSourceOnce(t *testing.T) {
	hub := telemetry.New(telemetry.Options{})
	Instrument(hub)
	compiles := hub.Counter("jsvm_bytecode_compile_total", "programs lowered to bytecode")
	c := NewCache()
	const n = 32
	src := strings.Repeat("var once = [1, 2, 3].join(\",\") + 4 * 5; ", 500)
	progs := make([]*Program, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			progs[i], errs[i] = c.Compile(src)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil || progs[i] != progs[0] {
			t.Fatalf("goroutine %d: program %p err %v, want %p", i, progs[i], errs[i], progs[0])
		}
	}
	if got := compiles.Value(); got != 1 {
		t.Errorf("compiles = %d, want 1", got)
	}
	if hits, misses := c.Stats(); hits != n-1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want %d / 1", hits, misses, n-1)
	}
}

// TestCacheParseErrorReachesEveryWaiter pins that a failing compile is
// reported to every concurrent caller and stays uncached.
func TestCacheParseErrorReachesEveryWaiter(t *testing.T) {
	c := NewCache()
	const n = 8
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = c.Compile(`function (`)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("goroutine %d: bad source compiled", i)
		}
	}
	if c.Len() != 0 {
		t.Errorf("parse failure was cached (Len = %d)", c.Len())
	}
}

func TestCompileCachedSharesDefaultCache(t *testing.T) {
	src := `"compile-cached-test-" + 1`
	p1, err := CompileCached(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CompileCached(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("CompileCached returned distinct programs for one source")
	}
}

func TestErrStepBudgetHaltsRunawayLoop(t *testing.T) {
	vm := New()
	vm.MaxSteps = 500
	_, err := vm.Run(`while (true) { var x = 1 }`)
	if err == nil {
		t.Fatal("runaway loop terminated without error")
	}
	if !errors.Is(err, ErrStepBudget) {
		t.Errorf("error %v is not ErrStepBudget", err)
	}
	if !strings.Contains(err.Error(), "step budget exhausted") {
		t.Errorf("error text %q lost the legacy message", err)
	}
}

func TestErrStepBudgetNotHitUnderBudget(t *testing.T) {
	vm := New()
	v, err := vm.Run(`var s = 0; for (var i = 0; i < 10; i++) { s += i } s`)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumberValue() != 45 {
		t.Errorf("result = %v, want 45", v.NumberValue())
	}
}

func TestArgumentsObjectStillWorks(t *testing.T) {
	// The arguments array is built only for functions that mention it;
	// make sure the parse-time detection keeps it working.
	vm := New()
	v, err := vm.Run(`
		function sum() {
			var t = 0;
			for (var i = 0; i < arguments.length; i++) { t += arguments[i] }
			return t
		}
		function noargs(a, b) { return a + b }
		sum(1, 2, 3, 4) + noargs(10, 20)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumberValue() != 40 {
		t.Errorf("result = %v, want 40", v.NumberValue())
	}
}

func TestClosureSurvivesScopePooling(t *testing.T) {
	// A closure created inside a block keeps its captured scope alive even
	// though non-escaping scopes are pooled.
	vm := New()
	v, err := vm.Run(`
		function makeCounter() {
			var n = 0;
			return function () { n++; return n }
		}
		var c1 = makeCounter();
		var c2 = makeCounter();
		c1(); c1(); c2();
		c1() * 10 + c2()
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumberValue() != 32 {
		t.Errorf("result = %v, want 32", v.NumberValue())
	}
}
