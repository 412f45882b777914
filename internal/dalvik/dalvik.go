// Package dalvik implements "sdex", a simplified Dalvik-executable-like
// bytecode container used as the stand-in for real DEX files in this
// reproduction.
//
// A File holds a string pool, a type pool, a pool of method references and a
// list of class definitions. Each class definition carries its superclass,
// implemented interfaces and method bodies encoded as a compact instruction
// stream. The format is binary (see writer.go / reader.go), self-describing
// and checksummed, mirroring the role classes.dex plays inside an APK.
//
// The package provides four views of the same data:
//
//   - a Builder for synthesising classes programmatically (used by the
//     corpus generator),
//   - Encode/Decode for the binary wire format (used by the APK packer and
//     the analysis pipeline),
//   - Disassemble for a human-readable listing, and
//   - typed accessors (Classes, MethodRefs, …) that the call-graph builder
//     consumes.
package dalvik

import "fmt"

// AccessFlag describes class, method and field visibility and modifiers.
// The values intentionally mirror a subset of the real DEX access flags.
type AccessFlag uint32

// Access flags understood by the container.
const (
	AccPublic      AccessFlag = 0x0001
	AccPrivate     AccessFlag = 0x0002
	AccProtected   AccessFlag = 0x0004
	AccStatic      AccessFlag = 0x0008
	AccFinal       AccessFlag = 0x0010
	AccInterface   AccessFlag = 0x0200
	AccAbstract    AccessFlag = 0x0400
	AccSynthetic   AccessFlag = 0x1000
	AccConstructor AccessFlag = 0x10000
)

// MethodRef identifies a method on a type, as used by invoke instructions.
// Class is a fully-qualified dotted name (e.g. "android.webkit.WebView"),
// Name the method name, and Signature a compact descriptor such as
// "(String)void".
type MethodRef struct {
	Class     string
	Name      string
	Signature string
}

// String returns the conventional Class.Name(Signature) rendering.
func (r MethodRef) String() string {
	return r.Class + "." + r.Name + r.Signature
}

// Field describes a class field.
type Field struct {
	Name  string
	Type  string
	Flags AccessFlag
}

// Method is a method definition with its bytecode body. Abstract and native
// methods have an empty Code slice.
type Method struct {
	Name      string
	Signature string
	Flags     AccessFlag
	Code      []Instruction
}

// Ref returns the MethodRef that invoke instructions elsewhere would use to
// target this method on class className.
func (m *Method) Ref(className string) MethodRef {
	return MethodRef{Class: className, Name: m.Name, Signature: m.Signature}
}

// Class is a class definition.
type Class struct {
	Name       string // fully-qualified dotted name
	SuperName  string // dotted name of the superclass; "" for java.lang.Object itself
	Interfaces []string
	SourceFile string
	Flags      AccessFlag
	Fields     []Field
	Methods    []Method
}

// Method returns the method with the given name and signature, or nil.
func (c *Class) Method(name, sig string) *Method {
	for i := range c.Methods {
		if c.Methods[i].Name == name && c.Methods[i].Signature == sig {
			return &c.Methods[i]
		}
	}
	return nil
}

// Package returns the Java package portion of the class name, or "" when the
// class is in the default package.
func (c *Class) Package() string {
	return PackageOf(c.Name)
}

// PackageOf returns the package prefix of a dotted class name.
func PackageOf(className string) string {
	for i := len(className) - 1; i >= 0; i-- {
		if className[i] == '.' {
			return className[:i]
		}
	}
	return ""
}

// File is a parsed or under-construction sdex container.
type File struct {
	Version uint16
	Classes []Class
}

// ClassByName returns the class definition with the given dotted name, or
// nil when the file does not define it.
func (f *File) ClassByName(name string) *Class {
	for i := range f.Classes {
		if f.Classes[i].Name == name {
			return &f.Classes[i]
		}
	}
	return nil
}

// MethodCount returns the total number of method definitions in the file.
func (f *File) MethodCount() int {
	n := 0
	for i := range f.Classes {
		n += len(f.Classes[i].Methods)
	}
	return n
}

// Validate checks structural invariants that both the writer and consumers
// rely on: unique class names, unique methods within a class, non-empty
// names, and in-range instruction operands (operand pools are per-file and
// resolved at encode time, so here we validate the symbolic form).
func (f *File) Validate() error {
	seen := make(map[string]bool, len(f.Classes))
	for i := range f.Classes {
		c := &f.Classes[i]
		if c.Name == "" {
			return fmt.Errorf("dalvik: class %d has empty name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("dalvik: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if repeatedMethod(c.Methods) {
			return fmt.Errorf("dalvik: class %q defines a method twice", c.Name)
		}
		for j := range c.Methods {
			m := &c.Methods[j]
			if m.Name == "" {
				return fmt.Errorf("dalvik: class %q method %d has empty name", c.Name, j)
			}
			for k, ins := range m.Code {
				if err := ins.validate(); err != nil {
					return fmt.Errorf("dalvik: %s.%s insn %d: %w", c.Name, m.Name, k, err)
				}
			}
		}
	}
	return nil
}

// repeatedMethod reports whether two of ms share a name and signature.
// Small classes, the common case, are compared pairwise without
// allocating; large ones go through a set, so corrupt input with huge
// classes stays linear.
func repeatedMethod(ms []Method) bool {
	if len(ms) > 16 {
		seen := make(map[[2]string]bool, len(ms))
		for i := range ms {
			k := [2]string{ms[i].Name, ms[i].Signature}
			if seen[k] {
				return true
			}
			seen[k] = true
		}
		return false
	}
	for i := range ms {
		for j := i + 1; j < len(ms); j++ {
			if ms[i].Name == ms[j].Name && ms[i].Signature == ms[j].Signature {
				return true
			}
		}
	}
	return false
}
