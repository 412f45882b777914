package decompiler_test

import (
	"encoding/binary"
	"hash/adler32"
	"reflect"
	"strings"
	"testing"

	"repro/internal/android"
	"repro/internal/dalvik"
	"repro/internal/decompiler"
	"repro/internal/javaparser"
)

// FuzzParsed feeds decoded sdex files to both readings of the decompiler's
// walk. The harness rewrites the adler32 header of the mutated bytes, as
// dalvik's FuzzDecode does, so mutations reach the classes and method
// bodies. For every file Decode accepts, Parsed must not panic and must be
// deterministic; for every plain class, javaparser.Parse must read the
// rendered source and deep-equal Parsed's unit. The checked-in seed
// corpus-dex is a corpus APK's dex; the seeds added here are the shapes
// the two readings must agree on.
func FuzzParsed(f *testing.F) {
	for _, build := range fuzzSeeds {
		b := dalvik.NewBuilder()
		build(b)
		data, err := dalvik.Encode(b.MustBuild())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		if len(data) >= 10 {
			binary.LittleEndian.PutUint32(data[6:10], adler32.Checksum(data[10:]))
		}
		dex, err := dalvik.Decode(data)
		if err != nil {
			return // dalvik's FuzzDecode checks the errors
		}
		units := decompiler.Parsed(dex)
		if len(units) != len(dex.Classes) {
			t.Fatalf("%d units for %d classes", len(units), len(dex.Classes))
		}
		if !reflect.DeepEqual(units, decompiler.Parsed(dex)) {
			t.Fatal("a second Parsed gave different units")
		}
		for i := range dex.Classes {
			c := &dex.Classes[i]
			if !plain(c) {
				continue
			}
			src := decompiler.DecompileClass(c)
			want, err := javaparser.Parse(src)
			if err != nil {
				t.Fatalf("plain class %q does not parse: %v\n%s", c.Name, err, src)
			}
			if !reflect.DeepEqual(units[i], want) {
				t.Fatalf("plain class %q: Parsed\n%+v\nParse of the rendered source\n%+v\n%s", c.Name, units[i], want, src)
			}
		}
	})
}

// sslErrorSig is WebViewClient.onReceivedSslError's signature.
const sslErrorSig = "(android.webkit.WebView,android.webkit.SslErrorHandler,android.net.http.SslError)void"

var fuzzSeeds = []func(b *dalvik.Builder){
	// Inner and anonymous classes: declared by their dex names, referred
	// to as Outer.Inner.
	func(b *dalvik.Builder) {
		b.Class("com.x.app.Main", android.ActivityClass, dalvik.AccPublic).
			VoidMethod("onCreate",
				dalvik.NewInstance("com.x.app.Main$Web"),
				dalvik.InvokeDirect("com.x.app.Main$Web", "<init>", "(android.content.Context)void"),
				dalvik.NewInstance("com.x.app.Main$1"),
				dalvik.InvokeDirect("com.x.app.Main$1", "<init>", "(com.x.app.Main)void"),
				dalvik.InvokeVirtual("com.x.app.Main$Web", "setWebViewClient", "(android.webkit.WebViewClient)void"),
				dalvik.InvokeStatic("com.x.app.Main$Web", "warmUp", "()void"),
			)
		b.Class("com.x.app.Main$1", android.WebViewClientClass, 0).
			Method(android.MethodOnReceivedSslError, sslErrorSig, dalvik.AccPublic,
				dalvik.InvokeVirtual("android.webkit.SslErrorHandler", "proceed", "()void"),
				dalvik.Return())
		b.Class("com.x.app.Main$Web", android.WebViewClass, dalvik.AccPublic).
			Method("warmUp", "()void", dalvik.AccPublic|dalvik.AccStatic, dalvik.Return())
	},
	// Constructors and static initialisers, declared and invoked outside
	// the constructor form.
	func(b *dalvik.Builder) {
		b.Class("com.x.app.Init", "com.x.app.Base", dalvik.AccPublic).
			Method("<init>", "(String)void", dalvik.AccPublic|dalvik.AccConstructor,
				dalvik.ConstString("base"),
				dalvik.InvokeDirect("com.x.app.Base", "<init>", "(String)void"),
				dalvik.Return()).
			Method("<clinit>", "()void", dalvik.AccStatic|dalvik.AccConstructor,
				dalvik.InvokeStatic("com.x.app.Init", "<clinit>", "()void"),
				dalvik.Instruction{Op: dalvik.OpMoveResult},
				dalvik.InvokeVirtual("com.x.app.Init", "reset", "(Object)void"),
				dalvik.Return())
	},
	// Two imported types share the simple names WebView and
	// WebViewClient.
	func(b *dalvik.Builder) {
		b.Class("com.x.app.Foo", "com.other.WebView", dalvik.AccPublic).
			VoidMethod("onClick", dalvik.InvokeVirtual(android.WebViewClass, "reload", "()void"))
		b.Class("com.x.app.Handler", "com.other.WebViewClient", dalvik.AccPublic).
			Method(android.MethodOnReceivedSslError, sslErrorSig, dalvik.AccPublic,
				dalvik.InvokeVirtual("android.webkit.SslErrorHandler", "proceed", "()void"),
				dalvik.Return()).
			VoidMethod("onClick",
				dalvik.InvokeVirtual(android.WebViewClientClass, "onPageFinished", "(android.webkit.WebView,String)void"))
	},
	// A const-int feeding a boolean parameter, an orphan move-result, a
	// branch and a returned value.
	func(b *dalvik.Builder) {
		b.Class("com.x.app.Settings", "java.lang.Object", dalvik.AccPublic|dalvik.AccFinal).
			Implements("java.lang.Runnable").
			Field("view", android.WebViewClass, dalvik.AccPrivate).
			Method("apply", "(android.webkit.WebView,int)Object", dalvik.AccPublic,
				dalvik.InvokeVirtual(android.WebViewClass, "getSettings", "()android.webkit.WebSettings"),
				dalvik.Instruction{Op: dalvik.OpMoveResult},
				dalvik.ConstInt(1),
				dalvik.InvokeVirtual("android.webkit.WebSettings", "setJavaScriptEnabled", "(boolean)void"),
				dalvik.ConstInt(-2),
				dalvik.ConstString("https://example.com/\n\"q\""),
				dalvik.InvokeVirtual("android.webkit.WebSettings", "setMixedContentMode", "(int,String,boolean)void"),
				dalvik.Instruction{Op: dalvik.OpMoveResult},
				dalvik.Instruction{Op: dalvik.OpIfZ, Int: 2},
				dalvik.Instruction{Op: dalvik.OpGoto, Int: -3},
				dalvik.Instruction{Op: dalvik.OpReturnValue})
	},
}

// plain reports whether the parser reads c's rendered source the way
// Parsed does: every name the source prints is ASCII identifier segments
// joined by '.' or '$', and the source-file name has no line break. A
// declared or invoked method may also be <init> or <clinit>.
func plain(c *dalvik.Class) bool {
	if strings.ContainsAny(c.SourceFile, "\r\n") {
		return false
	}
	names := append([]string{c.Name}, c.Interfaces...)
	if c.SuperName != "" {
		names = append(names, c.SuperName)
	}
	for _, fl := range c.Fields {
		names = append(names, fl.Type, fl.Name)
	}
	for i := range c.Methods {
		m := &c.Methods[i]
		if !plainMethodName(m.Name) || !plainSignature(m.Signature) {
			return false
		}
		for _, ins := range m.Code {
			switch {
			case ins.Op == dalvik.OpNewInstance:
				names = append(names, ins.Type)
			case ins.Op.IsInvoke():
				if !plainMethodName(ins.Target.Name) {
					return false
				}
				names = append(names, ins.Target.Class)
			}
		}
	}
	for _, n := range names {
		if !plainName(n) {
			return false
		}
	}
	return true
}

// plainMethodName reports whether a method name is plain: <init>,
// <clinit>, or identifier segments joined by '$'. A dot would split the
// name in the source.
func plainMethodName(name string) bool {
	return name == "<init>" || name == "<clinit>" || plainName(name) && !strings.Contains(name, ".")
}

// plainSignature reports whether the types a method declaration prints
// from sig are plain: the return type after ')' and each parameter type.
// A signature without its parentheses prints as void and no parameters.
func plainSignature(sig string) bool {
	open, close := strings.IndexByte(sig, '('), strings.LastIndexByte(sig, ')')
	if open < 0 || close < open {
		return true
	}
	if ret := sig[close+1:]; ret != "" && !plainName(ret) {
		return false
	}
	if inner := sig[open+1 : close]; inner != "" {
		for _, p := range strings.Split(inner, ",") {
			if !plainName(strings.TrimSpace(p)) {
				return false
			}
		}
	}
	return true
}

// plainName reports whether name is ASCII identifier segments joined by
// '.' or '$'.
func plainName(name string) bool {
	start := 0
	for i := 0; i <= len(name); i++ {
		if i < len(name) && name[i] != '.' && name[i] != '$' {
			continue
		}
		if !identifier(name[start:i]) {
			return false
		}
		start = i + 1
	}
	return true
}

// identifier reports whether s is an ASCII Java identifier. The primitive
// type names and void are allowed: the parser reads them as it reads any
// other name.
func identifier(s string) bool {
	if s == "" || keywords[s] {
		return false
	}
	for i := 0; i < len(s); i++ {
		b := s[i]
		switch {
		case b == '_' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z':
		case '0' <= b && b <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// keywords are Java's reserved words and literals, less the primitive
// types and void.
var keywords = func() map[string]bool {
	m := map[string]bool{}
	for _, w := range strings.Fields(`abstract assert break case catch class const continue
		default do else enum extends final finally for goto if implements import
		instanceof interface native new package private protected public return
		static strictfp super switch synchronized this throw throws transient try
		volatile while true false null _`) {
		m[w] = true
	}
	return m
}()
