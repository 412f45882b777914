package decompiler

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dalvik"
	"repro/internal/javaparser"
)

// randomClass builds a structurally valid random class exercising the
// decompiler's statement emitters.
func randomClass(rng *rand.Rand, idx int) dalvik.Class {
	supers := []string{
		"java.lang.Object", "android.app.Activity",
		"android.webkit.WebView", "com.lib.Base",
	}
	c := dalvik.Class{
		Name:      pickName(rng, idx),
		SuperName: supers[rng.Intn(len(supers))],
		Flags:     dalvik.AccPublic,
	}
	if rng.Intn(3) == 0 {
		c.Interfaces = append(c.Interfaces, "java.lang.Runnable")
	}
	for f := 0; f < rng.Intn(3); f++ {
		c.Fields = append(c.Fields, dalvik.Field{
			Name:  fieldName(f),
			Type:  "java.lang.String",
			Flags: dalvik.AccPrivate,
		})
	}
	for m := 0; m < 1+rng.Intn(4); m++ {
		meth := dalvik.Method{
			Name:      methodName(m),
			Signature: "()void",
			Flags:     dalvik.AccPublic,
		}
		for k := 0; k < rng.Intn(8); k++ {
			switch rng.Intn(7) {
			case 0:
				meth.Code = append(meth.Code, dalvik.ConstString(randString(rng)))
			case 1:
				meth.Code = append(meth.Code, dalvik.ConstInt(rng.Int63n(1000)))
			case 2:
				meth.Code = append(meth.Code,
					dalvik.NewInstance("com.lib.Widget"),
					dalvik.InvokeDirect("com.lib.Widget", "<init>", "()void"))
			case 3:
				meth.Code = append(meth.Code, dalvik.InvokeVirtual("android.webkit.WebView", "loadUrl", "(String)void"))
			case 4:
				meth.Code = append(meth.Code, dalvik.InvokeStatic("com.lib.Util", "go", "(String,int)void"))
			case 5:
				meth.Code = append(meth.Code, dalvik.Instruction{Op: dalvik.OpIfZ, Int: 1})
			case 6:
				meth.Code = append(meth.Code, dalvik.Instruction{Op: dalvik.OpMoveResult})
			}
		}
		meth.Code = append(meth.Code, dalvik.Return())
		c.Methods = append(c.Methods, meth)
	}
	return c
}

func pickName(rng *rand.Rand, idx int) string {
	pkgs := []string{"com.a.b", "org.x", "io.pkg.sub", ""}
	p := pkgs[rng.Intn(len(pkgs))]
	name := "Cls" + string(rune('A'+idx%26))
	if p == "" {
		return name
	}
	return p + "." + name
}

func fieldName(i int) string  { return "field" + string(rune('a'+i)) }
func methodName(i int) string { return "method" + string(rune('A'+i)) }

func randString(rng *rand.Rand) string {
	// Strings with characters the emitter must escape.
	alphabet := []rune(`abc "\{};<>//*`)
	n := rng.Intn(10)
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(out)
}

// Property: whatever the decompiler emits, the project's Java parser can
// parse, and the type header survives (name, supertype, method count).
// This is the contract the pipeline's decompile-then-parse round trip
// rests on.
func TestQuickDecompiledSourceAlwaysParses(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomClass(rng, rng.Intn(26))
		src := DecompileClass(&c)
		cu, err := javaparser.Parse(src)
		if err != nil {
			t.Logf("parse error: %v\nsource:\n%s", err, src)
			return false
		}
		if len(cu.Types) != 1 {
			return false
		}
		td := cu.Types[0]
		if cu.Resolve(td.Name) != c.Name {
			t.Logf("name %q resolved to %q, want %q", td.Name, cu.Resolve(td.Name), c.Name)
			return false
		}
		if len(td.Methods) != len(c.Methods) {
			t.Logf("methods = %d, want %d\n%s", len(td.Methods), len(c.Methods), src)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: the walk's two readings agree — Parsed builds exactly the
// unit javaparser reads from the rendered source.
func TestQuickParsedMatchesParse(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomClass(rng, rng.Intn(26))
		src := DecompileClass(&c)
		want, err := javaparser.Parse(src)
		if err != nil {
			t.Logf("parse error: %v\nsource:\n%s", err, src)
			return false
		}
		got := Parsed(&dalvik.File{Classes: []dalvik.Class{c}})[0]
		if !reflect.DeepEqual(got, want) {
			t.Logf("Parsed %+v\nParse  %+v\nsource:\n%s", got, want, src)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: dalvik encode → decode → decompile equals direct decompile
// (the wire format does not perturb source reconstruction).
func TestQuickWireFormatTransparent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := &dalvik.File{Version: dalvik.FormatVersion}
		for i := 0; i < 1+rng.Intn(3); i++ {
			f.Classes = append(f.Classes, randomClass(rng, i))
		}
		direct := Decompile(f)
		data, err := dalvik.Encode(f)
		if err != nil {
			return true // duplicate random names: not this property's concern
		}
		decoded, err := dalvik.Decode(data)
		if err != nil {
			return false
		}
		viaWire := Decompile(decoded)
		if len(direct) != len(viaWire) {
			return false
		}
		bySrc := make(map[string]string, len(direct))
		for _, u := range direct {
			bySrc[u.Path] = u.Source
		}
		for _, u := range viaWire {
			if bySrc[u.Path] != u.Source {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
