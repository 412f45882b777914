package decompiler

import (
	"strconv"
	"strings"

	"repro/internal/dalvik"
)

// lineKind names what one line of a rendered unit holds. Each kind's
// comment shows the line, with <field> standing for a field of the line.
type lineKind uint8

const (
	lineSource      lineKind = iota // // Decompiled with sjadx from <text>
	linePackage                     // package <text>;
	lineBlank                       // (empty)
	lineImport                      // import <text>;
	lineType                        // the declaration of <class>, opening its body
	lineField                       // a declaration of <field>
	lineMethod                      // the declaration of <method>, opening its body
	lineClose                       // }
	lineConstString                 // String s<n> = "<text>";
	lineConstInt                    // int i<n> = <num>;
	lineNew                         // T <v> = new T(a0, …);  T is <text> as a reference prints it, one placeholder per parameter of <sig>
	lineCall                        // <recv>.<name>(<args>);  or  Object <v> = <recv>.<name>(<args>);
	lineResult                      // Object <v> = __result;
	lineIf                          // if (__cond != 0) {
	lineGoto                        // // goto <num>
	lineReturn                      // return;
	lineReturnValue                 // return <v>;
	lineThrow                       // throw new RuntimeException();
)

// line is one line of a rendered unit as the walk yields it. A call
// line's args are allocated for it, so a reader may keep them.
type line struct {
	kind   lineKind
	no     int // line number in the rendered unit, from 1
	indent int // in steps of four spaces

	class  *dalvik.Class
	field  *dalvik.Field
	method *dalvik.Method

	text string
	n    int
	num  int64
	v    string
	recv string
	name string
	sig  string
	args []string
}

// reader consumes a walk one line at a time: the renderer writes each line
// as text, and Parsed keeps what javaparser would read from it.
type reader interface {
	read(l line)
}

// walk visits a class the way its rendered unit reads, one line at a time,
// and numbers the lines. It is the decompiler's one reading of the
// bytecode: the operand stack, the move-result rule and the line count
// live here, and both DecompileClass and Parsed run on it.
type walk struct {
	r   reader
	no  int
	ops []operand
}

// operand is one value on the symbolic operand stack the walk keeps: a
// constant or a variable that a later invoke can consume as an argument.
type operand struct {
	kind operandKind
	str  string // the variable name, or the string constant unquoted
	num  int64
}

type operandKind uint8

const (
	operandVar operandKind = iota
	operandString
	operandInt
)

// arg is the operand's argument expression. An int operand in a boolean
// slot reads true/false, matching javac's encoding of boolean literals as
// const ints.
func (op *operand) arg(boolean bool) string {
	switch op.kind {
	case operandString:
		return strconv.Quote(op.str)
	case operandInt:
		if boolean {
			if op.num == 0 {
				return "false"
			}
			return "true"
		}
		return strconv.FormatInt(op.num, 10)
	}
	return op.str
}

// put yields one line, numbered next.
func (w *walk) put(l line) {
	w.no++
	l.no = w.no
	w.r.read(l)
}

// class walks one class definition from the header comment to the
// closing brace of its body.
func (w *walk) class(c *dalvik.Class) {
	w.no = 0
	pkg := c.Package()
	w.put(line{kind: lineSource, text: sourceOf(c)})
	if pkg != "" {
		w.put(line{kind: linePackage, text: pkg})
		w.put(line{kind: lineBlank})
	}
	imports := collectImports(c, pkg)
	for _, imp := range imports {
		w.put(line{kind: lineImport, text: imp})
	}
	if len(imports) > 0 {
		w.put(line{kind: lineBlank})
	}
	w.put(line{kind: lineType, class: c})
	for i := range c.Fields {
		w.put(line{kind: lineField, indent: 1, field: &c.Fields[i]})
	}
	if len(c.Fields) > 0 && len(c.Methods) > 0 {
		w.put(line{kind: lineBlank})
	}
	for i := range c.Methods {
		m := &c.Methods[i]
		w.put(line{kind: lineMethod, indent: 1, method: m})
		w.body(m.Code)
		w.put(line{kind: lineClose, indent: 1})
		if i != len(c.Methods)-1 {
			w.put(line{kind: lineBlank})
		}
	}
	w.put(line{kind: lineClose})
}

// body reconstructs statements from the instruction stream. Branch
// instructions open and close scopes so the output nests plausibly; an
// invoke following a new-instance of the same class reads as a
// constructor call.
//
// Constants and invoke results are additionally tracked on a symbolic
// operand stack: a preceding const-string/const-int feeds the trailing
// arguments of the next invoke, so calls read setJavaScriptEnabled(true)
// or loadUrl("https://…") instead of opaque placeholders — the argument
// expressions the lint rules match on. The stack is cleared at branch
// boundaries: this linear reconstruction cannot prove a value flows across
// them.
func (w *walk) body(code []dalvik.Instruction) {
	indent := 2
	depth := 0 // open if-blocks
	var pendingNew string
	w.ops = w.ops[:0]
	varN := 0
	lastVar := "this"
	closeBlocks := func() {
		for depth > 0 {
			depth--
			indent--
			w.put(line{kind: lineClose, indent: indent})
		}
	}
	// call yields a non-constructor invoke. A directly following
	// move-result makes it an assignment whose variable goes back on the
	// operand stack — that is how getIntent()/getDataString() chains stay
	// visible as def-use edges.
	call := func(i int, recv string, t *dalvik.MethodRef) int {
		l := line{kind: lineCall, indent: indent, recv: recv, name: t.Name, args: w.takeArgs(t.Signature)}
		if i+1 < len(code) && code[i+1].Op == dalvik.OpMoveResult {
			varN++
			lastVar = varName(varN)
			l.v = lastVar
			w.put(l)
			w.ops = append(w.ops, operand{str: lastVar})
			return i + 1
		}
		w.put(l)
		return i
	}
	for i := 0; i < len(code); i++ {
		ins := &code[i]
		switch ins.Op {
		case dalvik.OpConstString:
			varN++
			w.put(line{kind: lineConstString, indent: indent, n: varN, text: ins.Str})
			w.ops = append(w.ops, operand{kind: operandString, str: ins.Str})
		case dalvik.OpConstInt:
			varN++
			w.put(line{kind: lineConstInt, indent: indent, n: varN, num: ins.Int})
			w.ops = append(w.ops, operand{kind: operandInt, num: ins.Int})
		case dalvik.OpNewInstance:
			pendingNew = ins.Type
		case dalvik.OpInvokeDirect:
			if pendingNew == ins.Target.Class && ins.Target.Name == "<init>" {
				varN++
				lastVar = varName(varN)
				// Constructor operands come from caller registers in the
				// builder idiom, not the tracked stack: keep placeholders so
				// a preceding URL constant stays available for the load call
				// it actually feeds.
				w.put(line{kind: lineNew, indent: indent, text: pendingNew, v: lastVar, sig: ins.Target.Signature})
				pendingNew = ""
				continue
			}
			i = call(i, lastVar, &ins.Target)
		case dalvik.OpInvokeVirtual, dalvik.OpInvokeInterface:
			i = call(i, lastVar, &ins.Target)
		case dalvik.OpInvokeStatic:
			i = call(i, simpleName(ins.Target.Class), &ins.Target)
		case dalvik.OpMoveResult:
			// Not directly after an invoke (corrupt or hand-built streams):
			// a placeholder result.
			varN++
			lastVar = varName(varN)
			w.put(line{kind: lineResult, indent: indent, v: lastVar})
			w.ops = append(w.ops, operand{str: lastVar})
		case dalvik.OpIfZ:
			w.put(line{kind: lineIf, indent: indent})
			indent++
			depth++
			w.ops = w.ops[:0]
		case dalvik.OpGoto:
			w.put(line{kind: lineGoto, indent: indent, num: ins.Int})
			w.ops = w.ops[:0]
		case dalvik.OpReturnVoid:
			closeBlocks()
			w.put(line{kind: lineReturn, indent: indent})
			w.ops = w.ops[:0]
		case dalvik.OpReturnValue:
			closeBlocks()
			w.put(line{kind: lineReturnValue, indent: indent, v: lastVar})
			w.ops = w.ops[:0]
		case dalvik.OpThrow:
			w.put(line{kind: lineThrow, indent: indent})
			w.ops = w.ops[:0]
		case dalvik.OpNop:
			// nothing
		}
	}
	closeBlocks()
}

// takeArgs returns an invoke's argument expressions, consuming up to
// nparams tracked operands for the trailing parameters (the most recent
// operand is the last argument) and placeholders for the rest.
func (w *walk) takeArgs(sig string) []string {
	params, n := paramList(sig)
	if n == 0 {
		return nil
	}
	take := min(len(w.ops), n)
	popped := w.ops[len(w.ops)-take:]
	w.ops = w.ops[:len(w.ops)-take]
	args := make([]string, n)
	for i := range args {
		var typ string
		typ, params, _ = strings.Cut(params, ",")
		if i < n-take {
			args[i] = placeholder(i)
			continue
		}
		args[i] = popped[i-(n-take)].arg(isBoolean(typ))
	}
	return args
}

// paramList returns the text between the parentheses of a signature such
// as "(String,int)void" and the number of comma-separated parameters in
// it.
func paramList(sig string) (string, int) {
	open := strings.IndexByte(sig, '(')
	close := strings.LastIndexByte(sig, ')')
	if open < 0 || close < open || close == open+1 {
		return "", 0
	}
	inner := sig[open+1 : close]
	return inner, strings.Count(inner, ",") + 1
}

// isBoolean reports whether a signature's parameter type prints as
// boolean.
func isBoolean(typ string) bool {
	typ = strings.TrimSpace(typ)
	return typ == "boolean" || strings.HasSuffix(typ, ".boolean")
}

// placeholder names the i-th declared parameter, a0, a1, …
func placeholder(i int) string { return "a" + strconv.Itoa(i) }

// varName names the n-th local an invoke result or constructor defines,
// v1, v2, …
func varName(n int) string { return "v" + strconv.Itoa(n) }

// paramNames returns the names of a signature's parameters as a method
// declaration or a constructor call prints them, a0, a1, …, or nil when
// it takes none.
func paramNames(sig string) []string {
	_, n := paramList(sig)
	if n == 0 {
		return nil
	}
	names := make([]string, n)
	for i := range names {
		names[i] = placeholder(i)
	}
	return names
}
