package browsersim

import "testing"

// BenchmarkPageRender renders one local page and runs its scripts: a page
// with no script, one whose script reads only document, and one whose
// script reads every global through window. Run with -benchmem: the
// per-op bytes are what a page load costs before its network traffic.
func BenchmarkPageRender(b *testing.B) {
	const head = `<!DOCTYPE html><html><head><title>Bench</title></head>` +
		`<body><div id="a"><p>one</p><p>two</p></div>`
	for _, bc := range []struct{ name, script string }{
		{"no-script", ``},
		{"document", `<script>var t = document.title;</script>`},
		{"every-global", `<script>var n = 0;
for (var k in window) { if (window[k] !== undefined) { n++; } }</script>`},
	} {
		html := head + bc.script + `</body></html>`
		b.Run(bc.name, func(b *testing.B) {
			l := &Loader{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewLocalPage(l, "https://bench.test/", html, true)
			}
		})
	}
}
