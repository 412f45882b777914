package pipeline

import (
	"reflect"
	"testing"

	"repro/internal/android"
	"repro/internal/apk"
	"repro/internal/dalvik"
	"repro/internal/manifest"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

// sslErrorSig is WebViewClient.onReceivedSslError's signature.
const sslErrorSig = "(android.webkit.WebView,android.webkit.SslErrorHandler,android.net.http.SslError)void"

// proceedOnSSLError is an onReceivedSslError body that ignores the error.
var proceedOnSSLError = []dalvik.Instruction{
	dalvik.InvokeVirtual("android.webkit.SslErrorHandler", "proceed", "()void"),
	dalvik.Return(),
}

// TestSubclassesAndClientsFromTheHierarchy analyses hand-built APKs with
// lint and URL extraction on. Custom WebViews and WebViewClients are read
// off the bytecode hierarchy: an inner class is analysed like any other,
// a WebView reached through an in-file superclass counts, and a foreign
// type that only shares a framework class's simple name does not.
func TestSubclassesAndClientsFromTheHierarchy(t *testing.T) {
	cases := []struct {
		name       string
		build      func(b *dalvik.Builder)
		subclasses []string
		lint       []string // rule class.method
	}{{
		name: "inner and anonymous classes",
		build: func(b *dalvik.Builder) {
			b.Class("com.x.app.Main", android.ActivityClass, dalvik.AccPublic).
				VoidMethod("onCreate",
					dalvik.NewInstance("com.x.app.Main$Web"),
					dalvik.InvokeDirect("com.x.app.Main$Web", "<init>", "(android.content.Context)void"),
					dalvik.NewInstance("com.x.app.Main$1"),
					dalvik.InvokeDirect("com.x.app.Main$1", "<init>", "(com.x.app.Main)void"),
					dalvik.InvokeVirtual("com.x.app.Main$Web", "setWebViewClient", "(android.webkit.WebViewClient)void"),
				)
			b.Class("com.x.app.Main$1", android.WebViewClientClass, 0).
				Method(android.MethodOnReceivedSslError, sslErrorSig, dalvik.AccPublic, proceedOnSSLError...)
			b.Class("com.x.app.Main$Web", android.WebViewClass, dalvik.AccPublic)
		},
		subclasses: []string{"com.x.app.Main$Web"},
		lint:       []string{webviewlint.RuleSSLErrorProceed + " com.x.app.Main$1.onReceivedSslError"},
	}, {
		name: "a foreign WebView imported beside android.webkit.WebView",
		build: func(b *dalvik.Builder) {
			b.Class("com.x.app.Foo", "com.other.WebView", dalvik.AccPublic).
				VoidMethod("onClick", dalvik.InvokeVirtual(android.WebViewClass, "reload", "()void"))
		},
	}, {
		name: "a foreign WebViewClient imported beside android.webkit.WebViewClient",
		build: func(b *dalvik.Builder) {
			b.Class("com.x.app.Handler", "com.other.WebViewClient", dalvik.AccPublic).
				Method(android.MethodOnReceivedSslError, sslErrorSig, dalvik.AccPublic, proceedOnSSLError...).
				VoidMethod("onClick",
					dalvik.InvokeVirtual(android.WebViewClientClass, "onPageFinished", "(android.webkit.WebView,String)void"))
		},
	}, {
		name: "a WebView reached through an in-file superclass",
		build: func(b *dalvik.Builder) {
			b.Class("com.x.app.A", android.WebViewClass, dalvik.AccPublic)
			b.Class("com.x.app.B", "com.x.app.A", dalvik.AccPublic)
		},
		subclasses: []string{"com.x.app.A", "com.x.app.B"},
	}}
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ex := urlextract.New(urlextract.Config{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := dalvik.NewBuilder()
			tc.build(b)
			m := &manifest.Manifest{
				Package:     "com.x.app",
				VersionCode: 1,
				Components:  []manifest.Component{{Kind: manifest.KindActivity, Name: "com.x.app.Main"}},
			}
			img, err := apk.Pack(m, b.MustBuild(), nil)
			if err != nil {
				t.Fatal(err)
			}
			an, err := AnalyzeAndExtract(nil, lint, ex, img)
			if err != nil {
				t.Fatal(err)
			}
			if an.Broken {
				t.Fatal("analysed as broken")
			}
			if !reflect.DeepEqual(an.Subclasses, tc.subclasses) {
				t.Errorf("Subclasses = %q, want %q", an.Subclasses, tc.subclasses)
			}
			var got []string
			for _, f := range an.Lint {
				got = append(got, f.Rule+" "+f.Class+"."+f.Method)
			}
			if !reflect.DeepEqual(got, tc.lint) {
				t.Errorf("lint findings = %q, want %q", got, tc.lint)
			}
		})
	}
}
