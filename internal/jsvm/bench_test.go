package jsvm

import (
	"fmt"
	"strings"
	"testing"
)

// parseHeavySrc builds the kind of script the crawl executes thousands of
// times: a large SDK-style bundle (many function definitions) whose actual
// per-visit execution is small. Parsing dominates; caching the parse is
// the win the program cache exists for.
func parseHeavySrc() string {
	var b strings.Builder
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&b, `
			function handler%d(ev) {
				var payload = { kind: "event", seq: %d, data: ev };
				if (payload.seq %% 2 === 0) { payload.even = true }
				return payload.kind + ":" + payload.seq
			}
		`, i, i)
	}
	b.WriteString(`
		var out = [];
		for (var i = 0; i < 5; i++) { out.push(handler0(i)) }
		out.length
	`)
	return b.String()
}

// BenchmarkJSVMColdParse is the pre-cache behaviour: every execution
// re-parses the script from source.
func BenchmarkJSVMColdParse(b *testing.B) {
	src := parseHeavySrc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vm := New()
		if _, err := vm.Run(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJSVMCachedParse executes a pre-parsed program on a fresh VM
// per iteration — the hot path after the program cache warms up.
func BenchmarkJSVMCachedParse(b *testing.B) {
	src := parseHeavySrc()
	prog, err := Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := New()
		if _, err := vm.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJSVMExecuteHot measures repeated execution inside one VM, the
// steady state of a crawl worker's VM.
func BenchmarkJSVMExecuteHot(b *testing.B) {
	prog, err := Compile(`
		function work(n) {
			var t = 0;
			for (var i = 0; i < n; i++) { t += i }
			return t
		}
		work(50)
	`)
	if err != nil {
		b.Fatal(err)
	}
	vm := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJSVMBytecodeExecute is BenchmarkJSVMExecuteHot with a
// tree-walker pair (parsed once, like the compiled program) for
// same-binary comparison.
func BenchmarkJSVMBytecodeExecute(b *testing.B) {
	const src = `
		function work(n) {
			var t = 0;
			for (var i = 0; i < n; i++) { t += i }
			return t
		}
		work(50)
	`
	prog, err := Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	body, err := parseProgram(src)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bytecode", func(b *testing.B) {
		vm := New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := vm.RunProgram(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ast", func(b *testing.B) {
		w := newWalker(New())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.exec(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJSVMCompile measures the full compile pipeline (parse +
// bytecode lowering) on the 120-function bundle — the cost a program
// cache miss pays once per distinct script.
func BenchmarkJSVMCompile(b *testing.B) {
	src := parseHeavySrc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestICHitRate pins the inline caches actually engaging: on a hot
// property/global workload the steady-state hit rate must be high.
func TestICHitRate(t *testing.T) {
	prog, err := Compile(`
		var obj = {a: 1, b: 2};
		function read() { return obj.a + obj.b }
		var t = 0;
		for (var i = 0; i < 200; i++) { t += read() }
		t
	`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.main == nil {
		t.Fatal("program did not lower to bytecode")
	}
	vm := New()
	for i := 0; i < 5; i++ {
		if _, err := vm.RunProgram(prog); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := vm.ICStats()
	if hits+misses == 0 {
		t.Fatal("no inline-cache traffic recorded")
	}
	rate := float64(hits) / float64(hits+misses)
	if rate < 0.95 {
		t.Errorf("IC hit rate = %.3f (hits=%d misses=%d), want >= 0.95", rate, hits, misses)
	}
}
