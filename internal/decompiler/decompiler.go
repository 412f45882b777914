// Package decompiler converts sdex bytecode into Java-like source text,
// playing the role JADX plays in the paper's pipeline (step 3 of Figure 1).
//
// The output is real, parseable Java-subset source: a package declaration,
// an import block, a class declaration with extends/implements clauses and
// method bodies reconstructed statement-by-statement from the instruction
// stream. One walk over the bytecode yields it line by line (walk.go), and
// two readings run on that walk. The text renderer (Decompile) is the
// developer view, and with package javaparser reading the text back it is
// the oracle for the paper's decompile-then-parse method (§3.1.2). Parsed
// builds the compilation units javaparser reads from that text without
// writing any, and the pipeline's lint stage reads those.
package decompiler

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/dalvik"
)

// Unit is one decompiled class: its file name (mirroring JADX's output
// layout, package/Class.java) and source text.
type Unit struct {
	Path   string
	Source string
}

// Decompile renders every class in the file as a separate compilation
// unit, in encoding (name) order.
func Decompile(f *dalvik.File) []Unit {
	units := make([]Unit, 0, len(f.Classes))
	for i := range f.Classes {
		c := &f.Classes[i]
		units = append(units, Unit{
			Path:   strings.ReplaceAll(c.Name, ".", "/") + ".java",
			Source: DecompileClass(c),
		})
	}
	return units
}

// bufPool recycles the render buffer across classes, so rendering a whole
// file does not re-pay the buffer's append-doubling for every class.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// DecompileClass renders a single class definition as Java-like source.
func DecompileClass(c *dalvik.Class) string {
	sb := bufPool.Get().(*bytes.Buffer)
	sb.Reset()
	defer bufPool.Put(sb)
	w := &walk{r: renderer{sb}}
	w.class(c)
	return sb.String() // copies out of the pooled buffer
}

// renderer writes each line of the walk as source text.
type renderer struct{ sb *bytes.Buffer }

func (r renderer) read(l line) {
	sb := r.sb
	for i := 0; i < l.indent; i++ {
		sb.WriteString("    ")
	}
	switch l.kind {
	case lineSource:
		sb.WriteString("// Decompiled with sjadx from ")
		sb.WriteString(l.text)
	case linePackage:
		fmt.Fprintf(sb, "package %s;", l.text)
	case lineImport:
		fmt.Fprintf(sb, "import %s;", l.text)
	case lineType:
		writeTypeHeader(sb, l.class)
	case lineField:
		fmt.Fprintf(sb, "%s%s %s;", modifiers(l.field.Flags), simpleName(l.field.Type), l.field.Name)
	case lineMethod:
		ret, params := splitSignature(l.method.Signature)
		fmt.Fprintf(sb, "%s%s %s(%s) {", modifiers(l.method.Flags), ret, l.method.Name, params)
	case lineClose:
		sb.WriteByte('}')
	case lineConstString:
		fmt.Fprintf(sb, "String s%d = %q;", l.n, l.text)
	case lineConstInt:
		fmt.Fprintf(sb, "int i%d = %d;", l.n, l.num)
	case lineNew:
		typ := simpleName(l.text)
		fmt.Fprintf(sb, "%s %s = new %s(%s);", typ, l.v, typ, strings.Join(paramNames(l.sig), ", "))
	case lineCall:
		if l.v != "" {
			fmt.Fprintf(sb, "Object %s = ", l.v)
		}
		fmt.Fprintf(sb, "%s.%s(%s);", l.recv, l.name, strings.Join(l.args, ", "))
	case lineResult:
		fmt.Fprintf(sb, "Object %s = __result;", l.v)
	case lineIf:
		sb.WriteString("if (__cond != 0) {")
	case lineGoto:
		fmt.Fprintf(sb, "// goto %+d", l.num)
	case lineReturn:
		sb.WriteString("return;")
	case lineReturnValue:
		fmt.Fprintf(sb, "return %s;", l.v)
	case lineThrow:
		sb.WriteString("throw new RuntimeException();")
	}
	sb.WriteByte('\n')
}

// writeTypeHeader writes a class or interface declaration up to the brace
// that opens its body. The class is declared by its dex simple name, so an
// inner class keeps its $ (Outer$Inner, a legal Java identifier);
// references to a type print it as Outer.Inner.
func writeTypeHeader(sb *bytes.Buffer, c *dalvik.Class) {
	sb.WriteString(modifiers(c.Flags))
	if c.Flags&dalvik.AccInterface != 0 {
		sb.WriteString("interface ")
	} else {
		sb.WriteString("class ")
	}
	sb.WriteString(declName(c.Name))
	if ext := extendsName(c); ext != "" {
		sb.WriteString(" extends ")
		sb.WriteString(ext)
	}
	if len(c.Interfaces) > 0 {
		sb.WriteString(" implements ")
		for i, it := range c.Interfaces {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(simpleName(it))
		}
	}
	sb.WriteString(" {")
}

func sourceOf(c *dalvik.Class) string {
	if c.SourceFile != "" {
		return c.SourceFile
	}
	return "classes.sdex"
}

// collectImports gathers every type the class references outside its own
// package and java.lang, sorted.
func collectImports(c *dalvik.Class, pkg string) []string {
	set := make(map[string]bool)
	add := func(t string) {
		if t == "" {
			return
		}
		p := dalvik.PackageOf(t)
		if p == "" || p == pkg || p == "java.lang" {
			return
		}
		// Inner classes import their outer type.
		if i := strings.IndexByte(t, '$'); i >= 0 {
			t = t[:i]
		}
		set[t] = true
	}
	add(c.SuperName)
	for _, it := range c.Interfaces {
		add(it)
	}
	for _, fl := range c.Fields {
		add(fl.Type)
	}
	for i := range c.Methods {
		for _, ins := range c.Methods[i].Code {
			switch {
			case ins.Op == dalvik.OpNewInstance:
				add(ins.Str)
			case ins.Op.IsInvoke():
				add(ins.Target.Class)
			}
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// splitSignature turns "(String,int)void" into ("void", "String a0, int a1").
func splitSignature(sig string) (ret, params string) {
	open := strings.IndexByte(sig, '(')
	close := strings.LastIndexByte(sig, ')')
	if open < 0 || close < open {
		return "void", ""
	}
	ret = sig[close+1:]
	if ret == "" {
		ret = "void"
	}
	inner := sig[open+1 : close]
	if inner == "" {
		return ret, ""
	}
	parts := strings.Split(inner, ",")
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = simpleName(strings.TrimSpace(p)) + " " + placeholder(i)
	}
	return ret, strings.Join(out, ", ")
}

// declName is the name a class is declared by: its dex name after the
// package, so an inner class keeps its $.
func declName(name string) string {
	return name[strings.LastIndexByte(name, '.')+1:]
}

// extendsName is the superclass as a declaration prints it, or "" when
// the class extends java.lang.Object or nothing.
func extendsName(c *dalvik.Class) string {
	if c.SuperName == "" || c.SuperName == "java.lang.Object" {
		return ""
	}
	return simpleName(c.SuperName)
}

// simpleName is a type as a reference prints it: the name after the
// package, with an inner class's $ read as a dot (Outer.Inner).
func simpleName(fqn string) string {
	if i := strings.LastIndexByte(fqn, '.'); i >= 0 {
		fqn = fqn[i+1:]
	}
	return strings.ReplaceAll(fqn, "$", ".")
}

func modifiers(f dalvik.AccessFlag) string {
	var sb strings.Builder
	if f&dalvik.AccPublic != 0 {
		sb.WriteString("public ")
	}
	if f&dalvik.AccPrivate != 0 {
		sb.WriteString("private ")
	}
	if f&dalvik.AccProtected != 0 {
		sb.WriteString("protected ")
	}
	if f&dalvik.AccStatic != 0 {
		sb.WriteString("static ")
	}
	if f&dalvik.AccFinal != 0 {
		sb.WriteString("final ")
	}
	if f&dalvik.AccAbstract != 0 && f&dalvik.AccInterface == 0 {
		sb.WriteString("abstract ")
	}
	return sb.String()
}
