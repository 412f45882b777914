package decompiler

import (
	"repro/internal/dalvik"
	"repro/internal/javaparser"
)

// Parsed returns, for every class in the file and in Decompile's order,
// the compilation unit javaparser.Parse reads from the class's rendered
// source: the package, imports and type, every method with its parameter
// names, and every call with its receiver, name, line, arguments and
// assignment. It runs the walk DecompileClass renders, without writing the
// text. TestParsedMatchesParse holds the two readings equal over the
// corpus, and FuzzParsed over every class whose names are plain Java
// identifiers.
func Parsed(f *dalvik.File) []*javaparser.CompilationUnit {
	units := make([]javaparser.CompilationUnit, len(f.Classes))
	types := make([]javaparser.TypeDecl, len(f.Classes))
	out := make([]*javaparser.CompilationUnit, len(f.Classes))
	p := &parseReader{}
	w := &walk{r: p}
	for i := range f.Classes {
		p.unit, p.td = &units[i], &types[i]
		w.class(&f.Classes[i])
		p.unit.Types = types[i : i+1 : i+1]
		out[i] = p.unit
	}
	return out
}

// parseReader keeps, from each line of the walk, what the parser reads
// off the rendered line.
type parseReader struct {
	unit  *javaparser.CompilationUnit
	td    *javaparser.TypeDecl
	calls []javaparser.Call // the class's calls; each method's Calls slices it
}

func (p *parseReader) read(l line) {
	switch l.kind {
	case linePackage:
		p.unit.Package = l.text
	case lineImport:
		p.unit.Imports = append(p.unit.Imports, l.text)
	case lineType:
		c := l.class
		p.td.Name = declName(c.Name)
		p.td.Extends = extendsName(c)
		if c.Flags&dalvik.AccInterface != 0 {
			p.td.Kind = javaparser.KindInterface
		}
		if len(c.Interfaces) > 0 {
			p.td.Implements = make([]string, len(c.Interfaces))
			for i, it := range c.Interfaces {
				p.td.Implements[i] = simpleName(it)
			}
		}
		if len(c.Methods) > 0 {
			p.td.Methods = make([]javaparser.MethodDecl, 0, len(c.Methods))
		}
		p.calls = nil
		if n := invokes(c); n > 0 {
			p.calls = make([]javaparser.Call, 0, n)
		}
	case lineMethod:
		p.td.Methods = append(p.td.Methods, javaparser.MethodDecl{
			Name:   parsedName(l.method.Name),
			Params: paramNames(l.method.Signature),
		})
	case lineCall:
		// An invoke of a constructor or static initialiser outside the
		// constructor form renders as v1.<init>(…), which the parser
		// skips as punctuation rather than reading as a call.
		if l.name == "<init>" || l.name == "<clinit>" {
			return
		}
		m := &p.td.Methods[len(p.td.Methods)-1]
		start := len(p.calls) - len(m.Calls)
		p.calls = append(p.calls, javaparser.Call{
			Receiver: l.recv, Name: l.name, Line: l.no, Args: l.args, Assign: l.v,
		})
		m.Calls = p.calls[start:len(p.calls):len(p.calls)]
	}
}

// invokes counts the invoke instructions of c: at most one call each.
func invokes(c *dalvik.Class) int {
	n := 0
	for i := range c.Methods {
		for j := range c.Methods[i].Code {
			if c.Methods[i].Code[j].Op.IsInvoke() {
				n++
			}
		}
	}
	return n
}

// parsedName is a declared method name as the parser reads it: <init> and
// <clinit> lose their angle brackets, which it skips as punctuation.
func parsedName(name string) string {
	switch name {
	case "<init>":
		return "init"
	case "<clinit>":
		return "clinit"
	}
	return name
}
