package jsvm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// builtins is the standard library subset the measured scripts use,
// the realm New starts from: Math, JSON, Object.keys/values,
// Array.isArray, String(), Number(), Boolean(), parseInt/parseFloat,
// isNaN, NaN, Infinity, Error, encodeURIComponent/decodeURIComponent and
// Date (a deterministic counter).
var builtins = NewRealm(nil,
	Binding{"Math", buildMath},
	Binding{"JSON", buildJSON},
	Binding{"Object", buildObject},
	Binding{"Array", buildArray},
	Binding{"String", hostFnBinding("String", func(c Call) (Value, error) {
		return String(c.Arg(0).StringValue()), nil
	})},
	Binding{"Number", hostFnBinding("Number", func(c Call) (Value, error) {
		return Number(c.Arg(0).NumberValue()), nil
	})},
	Binding{"Boolean", hostFnBinding("Boolean", func(c Call) (Value, error) {
		return Bool(c.Arg(0).Truthy()), nil
	})},
	Binding{"parseInt", hostFnBinding("parseInt", parseInt)},
	Binding{"parseFloat", hostFnBinding("parseFloat", func(c Call) (Value, error) {
		return Number(c.Arg(0).NumberValue()), nil
	})},
	Binding{"isNaN", hostFnBinding("isNaN", func(c Call) (Value, error) {
		return Bool(math.IsNaN(c.Arg(0).NumberValue())), nil
	})},
	Binding{"NaN", func(*VM) Value { return Number(math.NaN()) }},
	Binding{"Infinity", func(*VM) Value { return Number(math.Inf(1)) }},
	Binding{"Error", hostFnBinding("Error", func(c Call) (Value, error) {
		o := NewObject()
		o.Set("name", String("Error"))
		o.Set("message", c.Arg(0))
		if t := c.This.Object(); t != nil {
			t.Set("name", String("Error"))
			t.Set("message", c.Arg(0))
		}
		return ObjectValue(o), nil
	})},
	Binding{"encodeURIComponent", hostFnBinding("encodeURIComponent", func(c Call) (Value, error) {
		return String(uriEscape(c.Arg(0).StringValue())), nil
	})},
	Binding{"decodeURIComponent", hostFnBinding("decodeURIComponent", func(c Call) (Value, error) {
		s, err := uriUnescape(c.Arg(0).StringValue())
		if err != nil {
			return Undefined(), throwError("URI malformed")
		}
		return String(s), nil
	})},
	Binding{"Date", buildDate},
)

// Builtins returns the standard-library realm New uses, for embedders to
// extend with NewRealm.
func Builtins() *Realm { return builtins }

// hostFnBinding builds a fresh host function per VM.
func hostFnBinding(name string, f HostFunc) func(*VM) Value {
	return func(*VM) Value { return hostFn(name, f) }
}

func buildMath(*VM) Value {
	mathObj := NewObject()
	mathObj.SetFunc("floor", math1(math.Floor))
	mathObj.SetFunc("ceil", math1(math.Ceil))
	mathObj.SetFunc("round", math1(math.Round))
	mathObj.SetFunc("abs", math1(math.Abs))
	mathObj.SetFunc("sqrt", math1(math.Sqrt))
	mathObj.SetFunc("max", func(c Call) (Value, error) {
		out := math.Inf(-1)
		for _, a := range c.Args {
			out = math.Max(out, a.NumberValue())
		}
		return Number(out), nil
	})
	mathObj.SetFunc("min", func(c Call) (Value, error) {
		out := math.Inf(1)
		for _, a := range c.Args {
			out = math.Min(out, a.NumberValue())
		}
		return Number(out), nil
	})
	mathObj.SetFunc("pow", func(c Call) (Value, error) {
		return Number(math.Pow(c.Arg(0).NumberValue(), c.Arg(1).NumberValue())), nil
	})
	// Deterministic "random": an LCG so injected code behaves reproducibly.
	var lcg uint64 = 0x2545F4914F6CDD1D
	mathObj.SetFunc("random", func(c Call) (Value, error) {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return Number(float64(lcg>>11) / float64(1<<53)), nil
	})
	return ObjectValue(mathObj)
}

func buildJSON(*VM) Value {
	jsonObj := NewObject()
	jsonObj.SetFunc("stringify", func(c Call) (Value, error) {
		return String(jsonStringify(c.Arg(0))), nil
	})
	jsonObj.SetFunc("parse", func(c Call) (Value, error) {
		v, err := jsonParse(c.Arg(0).StringValue())
		if err != nil {
			return Undefined(), throwError("JSON.parse: %v", err)
		}
		return v, nil
	})
	return ObjectValue(jsonObj)
}

func buildObject(*VM) Value {
	objectCtor := NewHostFunc("Object", func(c Call) (Value, error) {
		return ObjectValue(NewObject()), nil
	})
	objectCtor.SetFunc("keys", func(c Call) (Value, error) {
		arr := NewArray()
		if o := c.Arg(0).Object(); o != nil {
			for _, k := range o.Keys() {
				arr.Append(String(k))
			}
		}
		return ObjectValue(arr), nil
	})
	objectCtor.SetFunc("values", func(c Call) (Value, error) {
		arr := NewArray()
		if o := c.Arg(0).Object(); o != nil {
			for _, k := range o.Keys() {
				arr.Append(o.Get(k))
			}
		}
		return ObjectValue(arr), nil
	})
	return ObjectValue(objectCtor)
}

func buildArray(*VM) Value {
	arrayCtor := NewHostFunc("Array", func(c Call) (Value, error) {
		return ObjectValue(NewArray(c.Args...)), nil
	})
	arrayCtor.SetFunc("isArray", func(c Call) (Value, error) {
		o := c.Arg(0).Object()
		return Bool(o != nil && o.IsArray()), nil
	})
	return ObjectValue(arrayCtor)
}

func parseInt(c Call) (Value, error) {
	s := strings.TrimSpace(c.Arg(0).StringValue())
	base := 10
	if b := c.Arg(1); !b.IsUndefined() && b.NumberValue() != 0 {
		base = int(b.NumberValue())
	}
	end := 0
	neg := false
	if end < len(s) && (s[end] == '+' || s[end] == '-') {
		neg = s[end] == '-'
		end++
	}
	start := end
	for end < len(s) && digitVal(s[end]) >= 0 && digitVal(s[end]) < base {
		end++
	}
	if start == end {
		return Number(math.NaN()), nil
	}
	n, err := strconv.ParseInt(s[start:end], base, 64)
	if err != nil {
		return Number(math.NaN()), nil
	}
	if neg {
		n = -n
	}
	return Number(float64(n)), nil
}

// buildDate builds Date, whose Date.now is a deterministic monotone
// counter (wall clocks would break reproducibility of injected-script
// output).
func buildDate(*VM) Value {
	var now float64 = 1_700_000_000_000
	dateCtor := NewHostFunc("Date", func(c Call) (Value, error) {
		o := NewObject()
		o.Set("__ms", Number(now))
		o.SetFunc("getTime", func(cc Call) (Value, error) { return Number(now), nil })
		return ObjectValue(o), nil
	})
	dateCtor.SetFunc("now", func(c Call) (Value, error) {
		now += 16 // one frame per call
		return Number(now), nil
	})
	return ObjectValue(dateCtor)
}

func math1(f func(float64) float64) HostFunc {
	return func(c Call) (Value, error) { return Number(f(c.Arg(0).NumberValue())), nil }
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'z':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'Z':
		return int(c-'A') + 10
	default:
		return -1
	}
}

func uriEscape(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			strings.IndexByte("-_.!~*'()", c) >= 0 {
			sb.WriteByte(c)
		} else {
			fmt.Fprintf(&sb, "%%%02X", c)
		}
	}
	return sb.String()
}

func uriUnescape(s string) (string, error) {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '%' {
			if i+2 >= len(s) {
				return "", fmt.Errorf("truncated escape")
			}
			n, err := strconv.ParseUint(s[i+1:i+3], 16, 8)
			if err != nil {
				return "", err
			}
			sb.WriteByte(byte(n))
			i += 2
		} else {
			sb.WriteByte(s[i])
		}
	}
	return sb.String(), nil
}

// String members.

func stringMember(s, name string) (Value, error) {
	switch name {
	case "length":
		return Number(float64(len(s))), nil
	case "charAt":
		return hostFn(name, func(c Call) (Value, error) {
			i := int(c.Arg(0).NumberValue())
			if i < 0 || i >= len(s) {
				return String(""), nil
			}
			return String(string(s[i])), nil
		}), nil
	case "charCodeAt":
		return hostFn(name, func(c Call) (Value, error) {
			i := int(c.Arg(0).NumberValue())
			if i < 0 || i >= len(s) {
				return Number(math.NaN()), nil
			}
			return Number(float64(s[i])), nil
		}), nil
	case "indexOf":
		return hostFn(name, func(c Call) (Value, error) {
			return Number(float64(strings.Index(s, c.Arg(0).StringValue()))), nil
		}), nil
	case "lastIndexOf":
		return hostFn(name, func(c Call) (Value, error) {
			return Number(float64(strings.LastIndex(s, c.Arg(0).StringValue()))), nil
		}), nil
	case "includes":
		return hostFn(name, func(c Call) (Value, error) {
			return Bool(strings.Contains(s, c.Arg(0).StringValue())), nil
		}), nil
	case "startsWith":
		return hostFn(name, func(c Call) (Value, error) {
			return Bool(strings.HasPrefix(s, c.Arg(0).StringValue())), nil
		}), nil
	case "endsWith":
		return hostFn(name, func(c Call) (Value, error) {
			return Bool(strings.HasSuffix(s, c.Arg(0).StringValue())), nil
		}), nil
	case "slice", "substring":
		return hostFn(name, func(c Call) (Value, error) {
			start, end := sliceBounds(len(s), c.Arg(0), c.Arg(1), name == "slice")
			return String(s[start:end]), nil
		}), nil
	case "toLowerCase":
		return hostFn(name, func(c Call) (Value, error) { return String(strings.ToLower(s)), nil }), nil
	case "toUpperCase":
		return hostFn(name, func(c Call) (Value, error) { return String(strings.ToUpper(s)), nil }), nil
	case "trim":
		return hostFn(name, func(c Call) (Value, error) { return String(strings.TrimSpace(s)), nil }), nil
	case "split":
		return hostFn(name, func(c Call) (Value, error) {
			arr := NewArray()
			sep := c.Arg(0)
			if sep.IsUndefined() {
				arr.Append(String(s))
			} else {
				for _, part := range strings.Split(s, sep.StringValue()) {
					arr.Append(String(part))
				}
			}
			return ObjectValue(arr), nil
		}), nil
	case "replace":
		return hostFn(name, func(c Call) (Value, error) {
			return String(strings.Replace(s, c.Arg(0).StringValue(), c.Arg(1).StringValue(), 1)), nil
		}), nil
	case "replaceAll":
		return hostFn(name, func(c Call) (Value, error) {
			return String(strings.ReplaceAll(s, c.Arg(0).StringValue(), c.Arg(1).StringValue())), nil
		}), nil
	case "concat":
		return hostFn(name, func(c Call) (Value, error) {
			out := s
			for _, a := range c.Args {
				out += a.StringValue()
			}
			return String(out), nil
		}), nil
	case "toString":
		return hostFn(name, func(c Call) (Value, error) { return String(s), nil }), nil
	default:
		return Undefined(), nil
	}
}

func sliceBounds(n int, a, b Value, negOK bool) (int, int) {
	start, end := 0, n
	if !a.IsUndefined() {
		start = int(a.NumberValue())
	}
	if !b.IsUndefined() {
		end = int(b.NumberValue())
	}
	if negOK {
		if start < 0 {
			start += n
		}
		if end < 0 {
			end += n
		}
	}
	start = clamp(start, 0, n)
	end = clamp(end, 0, n)
	if start > end {
		return end, end
	}
	return start, end
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func hostFn(name string, f HostFunc) Value { return ObjectValue(NewHostFunc(name, f)) }

// Array methods.

func arrayMethod(o *Object, name string) (Value, bool) {
	switch name {
	case "push":
		return hostFn(name, func(c Call) (Value, error) {
			o.Append(c.Args...)
			return Number(float64(len(o.elems))), nil
		}), true
	case "pop":
		return hostFn(name, func(c Call) (Value, error) {
			if len(o.elems) == 0 {
				return Undefined(), nil
			}
			v := o.elems[len(o.elems)-1]
			o.elems = o.elems[:len(o.elems)-1]
			return v, nil
		}), true
	case "shift":
		return hostFn(name, func(c Call) (Value, error) {
			if len(o.elems) == 0 {
				return Undefined(), nil
			}
			v := o.elems[0]
			o.elems = o.elems[1:]
			return v, nil
		}), true
	case "indexOf":
		return hostFn(name, func(c Call) (Value, error) {
			for i, e := range o.elems {
				if looseEquals(e, c.Arg(0), true) {
					return Number(float64(i)), nil
				}
			}
			return Number(-1), nil
		}), true
	case "includes":
		return hostFn(name, func(c Call) (Value, error) {
			for _, e := range o.elems {
				if looseEquals(e, c.Arg(0), true) {
					return Bool(true), nil
				}
			}
			return Bool(false), nil
		}), true
	case "join":
		return hostFn(name, func(c Call) (Value, error) {
			sep := ","
			if !c.Arg(0).IsUndefined() {
				sep = c.Arg(0).StringValue()
			}
			parts := make([]string, len(o.elems))
			for i, e := range o.elems {
				if !e.IsNullish() {
					parts[i] = e.StringValue()
				}
			}
			return String(strings.Join(parts, sep)), nil
		}), true
	case "slice":
		return hostFn(name, func(c Call) (Value, error) {
			start, end := sliceBounds(len(o.elems), c.Arg(0), c.Arg(1), true)
			return ObjectValue(NewArray(o.elems[start:end]...)), nil
		}), true
	case "concat":
		return hostFn(name, func(c Call) (Value, error) {
			out := NewArray(o.elems...)
			for _, a := range c.Args {
				if ao := a.Object(); ao != nil && ao.IsArray() {
					out.Append(ao.elems...)
				} else {
					out.Append(a)
				}
			}
			return ObjectValue(out), nil
		}), true
	case "forEach":
		return hostFn(name, func(c Call) (Value, error) {
			for i, e := range o.elems {
				if _, err := c.VM.invoke(c.Arg(0), Undefined(), []Value{e, Number(float64(i))}, 0); err != nil {
					return Undefined(), err
				}
			}
			return Undefined(), nil
		}), true
	case "map":
		return hostFn(name, func(c Call) (Value, error) {
			out := NewArray()
			for i, e := range o.elems {
				v, err := c.VM.invoke(c.Arg(0), Undefined(), []Value{e, Number(float64(i))}, 0)
				if err != nil {
					return Undefined(), err
				}
				out.Append(v)
			}
			return ObjectValue(out), nil
		}), true
	case "filter":
		return hostFn(name, func(c Call) (Value, error) {
			out := NewArray()
			for i, e := range o.elems {
				v, err := c.VM.invoke(c.Arg(0), Undefined(), []Value{e, Number(float64(i))}, 0)
				if err != nil {
					return Undefined(), err
				}
				if v.Truthy() {
					out.Append(e)
				}
			}
			return ObjectValue(out), nil
		}), true
	case "reduce":
		return hostFn(name, func(c Call) (Value, error) {
			acc := c.Arg(1)
			start := 0
			if acc.IsUndefined() && len(o.elems) > 0 {
				acc = o.elems[0]
				start = 1
			}
			for i := start; i < len(o.elems); i++ {
				v, err := c.VM.invoke(c.Arg(0), Undefined(), []Value{acc, o.elems[i], Number(float64(i))}, 0)
				if err != nil {
					return Undefined(), err
				}
				acc = v
			}
			return acc, nil
		}), true
	case "sort":
		return hostFn(name, func(c Call) (Value, error) {
			cmp := c.Arg(0)
			var sortErr error
			sort.SliceStable(o.elems, func(i, j int) bool {
				if sortErr != nil {
					return false
				}
				if cmp.IsUndefined() {
					return o.elems[i].StringValue() < o.elems[j].StringValue()
				}
				v, err := c.VM.invoke(cmp, Undefined(), []Value{o.elems[i], o.elems[j]}, 0)
				if err != nil {
					sortErr = err
					return false
				}
				return v.NumberValue() < 0
			})
			if sortErr != nil {
				return Undefined(), sortErr
			}
			return ObjectValue(o), nil
		}), true
	default:
		return Undefined(), false
	}
}

// objectMethod provides the few Object.prototype members scripts use.
func objectMethod(o *Object, name string) (Value, bool) {
	switch name {
	case "hasOwnProperty":
		return hostFn(name, func(c Call) (Value, error) {
			return Bool(o.Has(c.Arg(0).StringValue())), nil
		}), true
	case "toString":
		return hostFn(name, func(c Call) (Value, error) {
			return String(ObjectValue(o).StringValue()), nil
		}), true
	case "call":
		if o.IsCallable() {
			return hostFn(name, func(c Call) (Value, error) {
				var rest []Value
				if len(c.Args) > 1 {
					rest = c.Args[1:]
				}
				return c.VM.invoke(ObjectValue(o), c.Arg(0), rest, 0)
			}), true
		}
	case "apply":
		if o.IsCallable() {
			return hostFn(name, func(c Call) (Value, error) {
				var rest []Value
				if arr := c.Arg(1).Object(); arr != nil && arr.IsArray() {
					rest = arr.Elems()
				}
				return c.VM.invoke(ObjectValue(o), c.Arg(0), rest, 0)
			}), true
		}
	}
	return Undefined(), false
}

// JSON support.

func jsonStringify(v Value) string {
	var sb strings.Builder
	writeJSON(&sb, v, 0)
	return sb.String()
}

func writeJSON(sb *strings.Builder, v Value, depth int) {
	if depth > 32 {
		sb.WriteString("null")
		return
	}
	switch v.Kind() {
	case KindUndefined, KindNull:
		sb.WriteString("null")
	case KindBool, KindNumber:
		sb.WriteString(v.StringValue())
	case KindString:
		quoteJSON(sb, v.StringValue())
	case KindObject:
		o := v.Object()
		if o.IsCallable() {
			sb.WriteString("null")
			return
		}
		if o.IsArray() {
			sb.WriteByte('[')
			for i, e := range o.Elems() {
				if i > 0 {
					sb.WriteByte(',')
				}
				writeJSON(sb, e, depth+1)
			}
			sb.WriteByte(']')
			return
		}
		sb.WriteByte('{')
		for i, k := range o.Keys() {
			if i > 0 {
				sb.WriteByte(',')
			}
			quoteJSON(sb, k)
			sb.WriteByte(':')
			writeJSON(sb, o.Get(k), depth+1)
		}
		sb.WriteByte('}')
	}
}

// quoteJSON writes a JSON string literal: raw UTF-8 with only the
// mandatory escapes (quotes, backslash, control characters).
func quoteJSON(sb *strings.Builder, s string) {
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			sb.WriteString(`\"`)
		case c == '\\':
			sb.WriteString(`\\`)
		case c == '\n':
			sb.WriteString(`\n`)
		case c == '\t':
			sb.WriteString(`\t`)
		case c == '\r':
			sb.WriteString(`\r`)
		case c < 0x20:
			fmt.Fprintf(sb, `\u%04x`, c)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
}

func jsonParse(s string) (Value, error) {
	p := &jsonParser{src: s}
	v, err := p.value()
	if err != nil {
		return Undefined(), err
	}
	p.ws()
	if p.pos != len(p.src) {
		return Undefined(), fmt.Errorf("trailing data at %d", p.pos)
	}
	return v, nil
}

type jsonParser struct {
	src string
	pos int
}

func (p *jsonParser) ws() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *jsonParser) value() (Value, error) {
	p.ws()
	if p.pos >= len(p.src) {
		return Undefined(), fmt.Errorf("unexpected end")
	}
	switch c := p.src[p.pos]; {
	case c == '{':
		p.pos++
		o := NewObject()
		p.ws()
		if p.pos < len(p.src) && p.src[p.pos] == '}' {
			p.pos++
			return ObjectValue(o), nil
		}
		for {
			p.ws()
			k, err := p.str()
			if err != nil {
				return Undefined(), err
			}
			p.ws()
			if p.pos >= len(p.src) || p.src[p.pos] != ':' {
				return Undefined(), fmt.Errorf("expected ':' at %d", p.pos)
			}
			p.pos++
			v, err := p.value()
			if err != nil {
				return Undefined(), err
			}
			o.Set(k, v)
			p.ws()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.pos < len(p.src) && p.src[p.pos] == '}' {
				p.pos++
				return ObjectValue(o), nil
			}
			return Undefined(), fmt.Errorf("expected ',' or '}' at %d", p.pos)
		}
	case c == '[':
		p.pos++
		arr := NewArray()
		p.ws()
		if p.pos < len(p.src) && p.src[p.pos] == ']' {
			p.pos++
			return ObjectValue(arr), nil
		}
		for {
			v, err := p.value()
			if err != nil {
				return Undefined(), err
			}
			arr.Append(v)
			p.ws()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.pos < len(p.src) && p.src[p.pos] == ']' {
				p.pos++
				return ObjectValue(arr), nil
			}
			return Undefined(), fmt.Errorf("expected ',' or ']' at %d", p.pos)
		}
	case c == '"':
		s, err := p.str()
		return String(s), err
	case strings.HasPrefix(p.src[p.pos:], "true"):
		p.pos += 4
		return Bool(true), nil
	case strings.HasPrefix(p.src[p.pos:], "false"):
		p.pos += 5
		return Bool(false), nil
	case strings.HasPrefix(p.src[p.pos:], "null"):
		p.pos += 4
		return Null(), nil
	default:
		start := p.pos
		if c == '-' {
			p.pos++
		}
		for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' ||
			p.src[p.pos] == '.' || p.src[p.pos] == 'e' || p.src[p.pos] == 'E' ||
			p.src[p.pos] == '+' || p.src[p.pos] == '-') {
			p.pos++
		}
		n, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil {
			return Undefined(), fmt.Errorf("bad number at %d", start)
		}
		return Number(n), nil
	}
}

func (p *jsonParser) str() (string, error) {
	if p.pos >= len(p.src) || p.src[p.pos] != '"' {
		return "", fmt.Errorf("expected string at %d", p.pos)
	}
	p.pos++
	var sb strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch c {
		case '"':
			p.pos++
			return sb.String(), nil
		case '\\':
			p.pos++
			if p.pos >= len(p.src) {
				return "", fmt.Errorf("truncated escape")
			}
			switch p.src[p.pos] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case 'u':
				if p.pos+4 >= len(p.src) {
					return "", fmt.Errorf("truncated unicode escape")
				}
				n, err := strconv.ParseUint(p.src[p.pos+1:p.pos+5], 16, 32)
				if err != nil {
					return "", err
				}
				sb.WriteRune(rune(n))
				p.pos += 4
			default:
				sb.WriteByte(p.src[p.pos])
			}
			p.pos++
		default:
			sb.WriteByte(c)
			p.pos++
		}
	}
	return "", fmt.Errorf("unterminated string")
}
