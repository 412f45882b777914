package dalvik

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func sampleFile(t testing.TB) *File {
	t.Helper()
	b := NewBuilder()
	b.Class("com.example.app.MainActivity", "android.app.Activity", AccPublic).
		Source("MainActivity.java").
		VoidMethod("onCreate",
			NewInstance("android.webkit.WebView"),
			InvokeDirect("android.webkit.WebView", "<init>", "(Context)void"),
			ConstString("https://example.com"),
			InvokeVirtual("android.webkit.WebView", "loadUrl", "(String)void"),
		).
		VoidMethod("onResume",
			InvokeStatic("com.example.app.Analytics", "ping", "()void"),
		)
	b.Class("com.example.app.Analytics", "java.lang.Object", AccPublic|AccFinal).
		Field("endpoint", "java.lang.String", AccPrivate|AccStatic).
		Method("ping", "()void", AccPublic|AccStatic,
			ConstInt(42),
			Return(),
		)
	f, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return f
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sampleFile(t)
	data, err := Encode(f)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.Classes) != len(f.Classes) {
		t.Fatalf("class count = %d, want %d", len(got.Classes), len(f.Classes))
	}
	// Encode sorts classes by name; compare by lookup.
	for i := range f.Classes {
		want := &f.Classes[i]
		have := got.ClassByName(want.Name)
		if have == nil {
			t.Fatalf("class %q missing after round trip", want.Name)
		}
		if have.SuperName != want.SuperName {
			t.Errorf("%s super = %q, want %q", want.Name, have.SuperName, want.SuperName)
		}
		if have.SourceFile != want.SourceFile {
			t.Errorf("%s source = %q, want %q", want.Name, have.SourceFile, want.SourceFile)
		}
		if len(have.Methods) != len(want.Methods) {
			t.Fatalf("%s method count = %d, want %d", want.Name, len(have.Methods), len(want.Methods))
		}
		for j := range want.Methods {
			if !reflect.DeepEqual(have.Methods[j], want.Methods[j]) {
				t.Errorf("%s method %d = %+v, want %+v", want.Name, j, have.Methods[j], want.Methods[j])
			}
		}
		if !reflect.DeepEqual(have.Fields, want.Fields) {
			t.Errorf("%s fields = %+v, want %+v", want.Name, have.Fields, want.Fields)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	f := sampleFile(t)
	a, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse class order; output must be identical because Encode sorts.
	rev := &File{Version: f.Version}
	for i := len(f.Classes) - 1; i >= 0; i-- {
		rev.Classes = append(rev.Classes, f.Classes[i])
	}
	b, err := Encode(rev)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("Encode output depends on class declaration order")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	data, _ := Encode(sampleFile(t))
	data[0] = 'X'
	if _, err := Decode(data); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	data, _ := Encode(sampleFile(t))
	data[4] = 0xFF
	if _, err := Decode(data); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeRejectsChecksumMismatch(t *testing.T) {
	data, _ := Encode(sampleFile(t))
	data[len(data)-1] ^= 0x01
	if _, err := Decode(data); !errors.Is(err, ErrChecksum) {
		t.Errorf("err = %v, want ErrChecksum", err)
	}
}

func TestDecodeRejectsShortFile(t *testing.T) {
	for _, n := range []int{0, 1, 4, 9} {
		if _, err := Decode(make([]byte, n)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Decode(%d bytes) err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data, _ := Encode(sampleFile(t))
	// Truncating anywhere in the body must yield a checksum error (the sum
	// covers the body), never a panic.
	for cut := 10; cut < len(data); cut += 7 {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("Decode of %d/%d bytes unexpectedly succeeded", cut, len(data))
		}
	}
}

// TestDecodeNeverPanics fuzzes the decoder with random mutations of a valid
// file; decoding must fail gracefully or succeed, never panic. Mutated
// bodies are re-checksummed so the fuzz reaches past the integrity check.
func TestDecodeNeverPanics(t *testing.T) {
	valid, _ := Encode(sampleFile(t))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		data := make([]byte, len(valid))
		copy(data, valid)
		for j := 0; j < 1+rng.Intn(5); j++ {
			data[10+rng.Intn(len(data)-10)] = byte(rng.Intn(256))
		}
		rechecksum(data)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on mutation %d: %v", i, r)
				}
			}()
			_, _ = Decode(data)
		}()
	}
}

func rechecksum(data []byte) {
	// Mirror of the writer's layout: checksum at [6:10] over data[10:].
	sum := adler(data[10:])
	data[6] = byte(sum)
	data[7] = byte(sum >> 8)
	data[8] = byte(sum >> 16)
	data[9] = byte(sum >> 24)
}

func adler(b []byte) uint32 {
	const mod = 65521
	a, s := uint32(1), uint32(0)
	for _, c := range b {
		a = (a + uint32(c)) % mod
		s = (s + a) % mod
	}
	return s<<16 | a
}

func TestValidateDuplicateClass(t *testing.T) {
	f := &File{Classes: []Class{{Name: "a.B"}, {Name: "a.B"}}}
	if err := f.Validate(); err == nil {
		t.Error("Validate accepted duplicate class names")
	}
}

func TestValidateDuplicateMethod(t *testing.T) {
	f := &File{Classes: []Class{{Name: "a.B", Methods: []Method{
		{Name: "m", Signature: "()void"},
		{Name: "m", Signature: "(int)void"},
		{Name: "m", Signature: "()void"},
	}}}}
	if err := f.Validate(); err == nil {
		t.Error("Validate accepted a method defined twice in one class")
	}
}

// TestDecodeRejectsRepeatedDefinitions patches one name of an encoded file
// (same length, checksum rewritten) so that the file repeats a class,
// repeats a method within a class, or lists its classes out of the name
// order Encode writes. Decode must reject all three as corrupt.
func TestDecodeRejectsRepeatedDefinitions(t *testing.T) {
	b := NewBuilder()
	b.Class("com.a.Aaa", "android.app.Activity", AccPublic).
		VoidMethod("onCreate", ConstString("https://first.example/")).
		VoidMethod("runOne").
		VoidMethod("runTwo")
	b.Class("com.a.Aab", "android.app.Activity", AccPublic).
		VoidMethod("onCreate", ConstString("https://second.example/"))
	valid, err := Encode(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("unpatched file: %v", err)
	}
	for _, tc := range []struct{ name, from, to string }{
		{"repeated class", "com.a.Aab", "com.a.Aaa"},
		{"class out of order", "com.a.Aab", "com.a.Aa0"},
		{"repeated method", "runTwo", "runOne"},
	} {
		data := bytes.ReplaceAll(valid, []byte(tc.from), []byte(tc.to))
		rechecksum(data)
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode error = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestValidateEmptyInvokeTarget(t *testing.T) {
	for _, target := range []*MethodRef{nil, {}, {Class: "a.B"}} {
		f := &File{Classes: []Class{{
			Name: "a.B",
			Methods: []Method{{
				Name:      "m",
				Signature: "()void",
				Code:      []Instruction{{Op: OpInvokeVirtual, Target: target}},
			}},
		}}}
		if err := f.Validate(); err == nil {
			t.Errorf("Validate accepted invoke with target %v", target)
		}
		if _, err := Encode(f); err == nil {
			t.Errorf("Encode accepted invoke with target %v", target)
		}
	}
}

// TestInstructionSize pins the decoded instruction at 40 bytes at most:
// every method body of every decoded APK is a slice of them.
func TestInstructionSize(t *testing.T) {
	if n := unsafe.Sizeof(Instruction{}); n > 40 {
		t.Errorf("Instruction is %d bytes, want at most 40", n)
	}
}

// TestDecodeSharesTargets checks that Decode points every invoke of one
// method-pool entry at that entry, and the invoke constructors give each
// instruction a target of its own.
func TestDecodeSharesTargets(t *testing.T) {
	b := NewBuilder()
	b.Class("a.A", "java.lang.Object", AccPublic).
		VoidMethod("one", InvokeStatic("a.B", "f", "()void"), InvokeStatic("a.B", "g", "()void")).
		VoidMethod("two", InvokeStatic("a.B", "f", "()void"))
	b.Class("a.B", "java.lang.Object", AccPublic).
		VoidMethod("three", InvokeStatic("a.B", "f", "()void"))
	built := b.MustBuild()
	if built.Classes[0].Methods[0].Code[0].Target == built.Classes[0].Methods[1].Code[0].Target {
		t.Error("two constructed invokes share a target")
	}
	enc, err := Encode(built)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	f1 := f.Classes[0].Methods[0].Code[0].Target
	g := f.Classes[0].Methods[0].Code[1].Target
	for _, other := range []*MethodRef{f.Classes[0].Methods[1].Code[0].Target, f.Classes[1].Methods[0].Code[0].Target} {
		if other != f1 {
			t.Error("two decoded invokes of a.B.f do not share their target")
		}
	}
	if g == f1 || *g != (MethodRef{Class: "a.B", Name: "g", Signature: "()void"}) {
		t.Errorf("a.B.g decoded as %v", *g)
	}
}

func TestPackageOf(t *testing.T) {
	cases := []struct{ in, want string }{
		{"com.example.app.MainActivity", "com.example.app"},
		{"Main", ""},
		{"a.B", "a"},
		{"", ""},
	}
	for _, c := range cases {
		if got := PackageOf(c.in); got != c.want {
			t.Errorf("PackageOf(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestBuilderAppendsReturn(t *testing.T) {
	f := NewBuilder().
		Class("a.B", "java.lang.Object", AccPublic).
		VoidMethod("m", ConstInt(1)).
		MustBuild()
	code := f.Classes[0].Methods[0].Code
	if code[len(code)-1].Op != OpReturnVoid {
		t.Error("VoidMethod did not append return-void")
	}
	// Already-terminated bodies must not get a second return.
	f2 := NewBuilder().
		Class("a.B", "java.lang.Object", AccPublic).
		VoidMethod("m", ConstInt(1), Return()).
		MustBuild()
	if n := len(f2.Classes[0].Methods[0].Code); n != 2 {
		t.Errorf("VoidMethod appended redundant return (len=%d)", n)
	}
}

func TestDisassembleMentionsEveryMethod(t *testing.T) {
	f := sampleFile(t)
	out := Disassemble(f)
	for _, want := range []string{
		".class public com.example.app.MainActivity",
		".super android.app.Activity",
		".method public onCreate()void",
		`const-string "https://example.com"`,
		"invoke-virtual android.webkit.WebView.loadUrl(String)void",
		".field private static endpoint java.lang.String",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q\n%s", want, out)
		}
	}
}

// quickFile builds a structurally valid random File for property testing.
func quickFile(rng *rand.Rand) *File {
	names := []string{"a.A", "a.B", "b.C", "com.x.Y", "com.x.Z"}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	n := 1 + rng.Intn(len(names))
	f := &File{Version: FormatVersion}
	for i := 0; i < n; i++ {
		c := Class{Name: names[i], SuperName: "java.lang.Object", Flags: AccPublic}
		for m := 0; m < rng.Intn(4); m++ {
			meth := Method{Name: "m" + string(rune('a'+m)), Signature: "()void", Flags: AccPublic}
			for k := 0; k < rng.Intn(6); k++ {
				switch rng.Intn(5) {
				case 0:
					meth.Code = append(meth.Code, ConstString(strings.Repeat("x", rng.Intn(9))))
				case 1:
					meth.Code = append(meth.Code, ConstInt(rng.Int63n(1e6)-5e5))
				case 2:
					meth.Code = append(meth.Code, NewInstance("t.T"))
				case 3:
					meth.Code = append(meth.Code, InvokeVirtual("t.T", "f", "()void"))
				default:
					meth.Code = append(meth.Code, Instruction{Op: OpIfZ, Int: int64(rng.Intn(10))})
				}
			}
			meth.Code = append(meth.Code, Return())
			c.Methods = append(c.Methods, meth)
		}
		f.Classes = append(f.Classes, c)
	}
	return f
}

// Property: Decode(Encode(f)) preserves every class definition.
func TestQuickRoundTripPreservesClasses(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := quickFile(rng)
		data, err := Encode(f)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		if len(got.Classes) != len(f.Classes) {
			return false
		}
		for i := range f.Classes {
			have := got.ClassByName(f.Classes[i].Name)
			if have == nil || !reflect.DeepEqual(have.Methods, f.Classes[i].Methods) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: encoding is idempotent — re-encoding a decoded file reproduces
// the original bytes.
func TestQuickEncodeIdempotent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := quickFile(rng)
		a, err := Encode(f)
		if err != nil {
			return false
		}
		dec, err := Decode(a)
		if err != nil {
			return false
		}
		b, err := Encode(dec)
		if err != nil {
			return false
		}
		return string(a) == string(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
