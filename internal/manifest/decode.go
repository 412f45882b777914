package manifest

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// maxDepth bounds element nesting in Decode. Encode writes six levels
// (manifest, application, component, intent-filter, action, name).
const maxDepth = 64

// Decode parses a manifest written by Encode, or hand-written XML of the
// same shape, in one pass over the bytes with no reflection and no
// recursion. It reads what encoding/xml's Unmarshal reads into Encode's
// wire form: elements, quoted attributes, the five predefined entities,
// numeric character references, comments and the XML declaration.
// Elements and attributes are matched by local name, so a namespace prefix
// (android:name) is ignored, as encoding/xml ignores it for these untagged
// fields; unknown elements are skipped and unknown attributes ignored.
// Besides everything encoding/xml rejects (malformed markup, mismatched
// tags, invalid UTF-8 or XML characters, undeclared entities), Decode
// rejects these constructs, which Encode never writes:
//   - a DOCTYPE or any other <!...> declaration, and CDATA sections;
//   - processing instructions other than an XML declaration at the very
//     start, and in that declaration a version other than 1.0, an encoding
//     other than UTF-8 (non-UTF-8 encodings), a standalone value other
//     than yes or no, or any other pseudo-attribute;
//   - element and attribute names with non-ASCII characters;
//   - text other than whitespace outside the root element, a byte-order
//     mark included, and anything but whitespace and comments after it;
//   - elements nested more than maxDepth deep.
func Decode(data []byte) (*Manifest, error) {
	d := decoder{data: data, m: new(Manifest)}
	m, err := d.document()
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// elem is what an open element maps to in the Manifest, which decides
// what its attributes and children map to.
type elem uint8

const (
	elemSkipped  elem = iota // read for well-formedness only
	elemDocument             // the root element's parent
	elemManifest
	elemUsesSDK
	elemApplication
	elemComponent
	elemFilter
	elemAction
	elemCategory
	elemData
	elemActionName   // its text is one of the filter's actions
	elemCategoryName // its text is one of the filter's categories
)

// componentKinds are the component kinds, named as their elements, in the
// order Decode lists components (and Encode writes them).
var componentKinds = [...]ComponentKind{KindActivity, KindService, KindReceiver, KindProvider}

// componentKind returns the kind a component element's local name names,
// and its place in componentKinds (-1 for none).
func componentKind(local []byte) (ComponentKind, int) {
	for i, k := range componentKinds {
		if string(local) == string(k) {
			return k, i
		}
	}
	return "", -1
}

// child maps an element with local name local inside a parent element.
func child(parent elem, local []byte) elem {
	switch parent {
	case elemDocument:
		if string(local) == "manifest" {
			return elemManifest
		}
	case elemManifest:
		switch string(local) {
		case "uses-sdk":
			return elemUsesSDK
		case "application":
			return elemApplication
		}
	case elemApplication:
		if _, i := componentKind(local); i >= 0 {
			return elemComponent
		}
	case elemComponent:
		if string(local) == "intent-filter" {
			return elemFilter
		}
	case elemFilter:
		switch string(local) {
		case "action":
			return elemAction
		case "category":
			return elemCategory
		case "data":
			return elemData
		}
	case elemAction:
		if string(local) == "name" {
			return elemActionName
		}
	case elemCategory:
		if string(local) == "name" {
			return elemCategoryName
		}
	}
	return elemSkipped
}

// frame is one open element: its raw name, which its end tag must repeat,
// and what it maps to.
type frame struct {
	name []byte
	elem elem
}

// decoder is Decode's state: the input, the manifest being built and the
// open component, intent filter and data element, each of which the
// element nesting keeps current while its children are read.
type decoder struct {
	data []byte
	pos  int
	buf  []byte // decoded character data, when decoding changes it
	text []byte // the open action or category name's text

	m      *Manifest
	comps  []Component
	comp   *Component
	filter *IntentFilter
	spec   *DataSpec
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: "+format, append([]any{d.pos}, args...)...)
}

// document reads the whole input: an optional XML declaration, then the
// root element with whitespace and comments around it.
func (d *decoder) document() (*Manifest, error) {
	if err := d.declaration(); err != nil {
		return nil, err
	}
	var stack [maxDepth]frame
	depth, rooted := 0, false
	for {
		if depth == 0 && rooted {
			return d.finish()
		}
		if d.pos >= len(d.data) {
			return nil, d.errorf("unexpected EOF")
		}
		if d.data[d.pos] != '<' {
			end := bytes.IndexByte(d.data[d.pos:], '<')
			if end < 0 {
				end = len(d.data) - d.pos
			}
			raw := d.data[d.pos : d.pos+end]
			if depth == 0 {
				if len(bytes.TrimLeft(raw, " \t\r\n")) > 0 {
					return nil, d.errorf("text outside the root element")
				}
			} else {
				text, err := d.chars(raw, false)
				if err != nil {
					return nil, err
				}
				if e := stack[depth-1].elem; e == elemActionName || e == elemCategoryName {
					d.text = append(d.text, text...)
				}
			}
			d.pos += end
			continue
		}
		if d.pos+1 >= len(d.data) {
			return nil, d.errorf("unexpected EOF")
		}
		switch d.data[d.pos+1] {
		case '!':
			if err := d.comment(); err != nil {
				return nil, err
			}
		case '?':
			return nil, d.errorf("processing instruction")
		case '/':
			if depth == 0 {
				return nil, d.errorf("end tag outside the root element")
			}
			name, err := d.endTag()
			if err != nil {
				return nil, err
			}
			top := &stack[depth-1]
			if !bytes.Equal(name, top.name) {
				return nil, d.errorf("element <%s> closed by </%s>", top.name, name)
			}
			d.close(top.elem)
			depth--
		default:
			if depth == maxDepth {
				return nil, d.errorf("elements nested more than %d deep", maxDepth)
			}
			parent := elemDocument
			if depth > 0 {
				parent = stack[depth-1].elem
			}
			name, e, empty, err := d.startTag(parent)
			if err != nil {
				return nil, err
			}
			rooted = true
			if empty {
				d.close(e)
			} else {
				stack[depth] = frame{name: name, elem: e}
				depth++
			}
		}
	}
}

// finish reads what follows the root element, whitespace and comments
// only, and returns the manifest with its components in kind order.
func (d *decoder) finish() (*Manifest, error) {
	for {
		d.space()
		if d.pos >= len(d.data) {
			break
		}
		if !bytes.HasPrefix(d.data[d.pos:], []byte("<!--")) {
			return nil, d.errorf("content after the root element")
		}
		if err := d.comment(); err != nil {
			return nil, err
		}
	}
	slices.SortStableFunc(d.comps, func(a, b Component) int {
		_, i := componentKind([]byte(a.Kind))
		_, j := componentKind([]byte(b.Kind))
		return i - j
	})
	d.m.Components = d.comps
	return d.m, nil
}

// declaration reads an XML declaration at the very start of the input:
// version 1.0, encoding UTF-8 and standalone yes or no, each optional.
func (d *decoder) declaration() error {
	const open = "<?xml"
	if !bytes.HasPrefix(d.data, []byte(open)) || len(d.data) == len(open) ||
		!isSpaceByte(d.data[len(open)]) && d.data[len(open)] != '?' {
		return nil
	}
	d.pos = len(open)
	for {
		d.space()
		if bytes.HasPrefix(d.data[d.pos:], []byte("?>")) {
			d.pos += 2
			return nil
		}
		name, err := d.name()
		if err != nil {
			return err
		}
		val, err := d.rawValue()
		if err != nil {
			return err
		}
		var ok bool
		switch string(name) {
		case "version":
			ok = string(val) == "1.0"
		case "encoding":
			ok = bytes.EqualFold(val, []byte("utf-8"))
		case "standalone":
			ok = string(val) == "yes" || string(val) == "no"
		}
		if !ok {
			return d.errorf("XML declaration %s=%q", name, val)
		}
	}
}

// comment reads a comment at d.pos; a "--" inside it must end it.
func (d *decoder) comment() error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte("<!--")) {
		return d.errorf("DOCTYPE, CDATA section or other <! declaration")
	}
	body := d.data[d.pos+4:]
	i := bytes.Index(body, []byte("--"))
	if i < 0 || i+2 >= len(body) {
		return d.errorf("unterminated comment")
	}
	if body[i+2] != '>' {
		return d.errorf(`"--" inside a comment`)
	}
	d.pos += 4 + i + 3
	return nil
}

// startTag reads a start tag at d.pos whose element sits in parent,
// opens what the element maps to and applies its attributes. empty
// reports a self-closing tag.
func (d *decoder) startTag(parent elem) (name []byte, e elem, empty bool, err error) {
	d.pos++ // '<'
	if name, err = d.name(); err != nil {
		return nil, 0, false, err
	}
	e = child(parent, localName(name))
	if parent == elemDocument && e != elemManifest {
		return nil, 0, false, d.errorf("root element <%s>, want <manifest>", name)
	}
	d.open(e, localName(name))
	for {
		d.space()
		if d.pos >= len(d.data) {
			return nil, 0, false, d.errorf("unexpected EOF")
		}
		switch d.data[d.pos] {
		case '>':
			d.pos++
			return name, e, false, nil
		case '/':
			if d.pos+1 < len(d.data) && d.data[d.pos+1] == '>' {
				d.pos += 2
				return name, e, true, nil
			}
			return nil, 0, false, d.errorf("expected /> in element")
		}
		attr, err := d.name()
		if err != nil {
			return nil, 0, false, err
		}
		raw, err := d.rawValue()
		if err != nil {
			return nil, 0, false, err
		}
		if bytes.IndexByte(raw, '<') >= 0 {
			return nil, 0, false, d.errorf("unescaped < in attribute value")
		}
		val, err := d.chars(raw, true)
		if err != nil {
			return nil, 0, false, err
		}
		if err := d.attr(e, localName(attr), val); err != nil {
			return nil, 0, false, d.errorf("attribute %s: %v", attr, err)
		}
	}
}

// endTag reads an end tag at d.pos and returns its name.
func (d *decoder) endTag() ([]byte, error) {
	d.pos += 2 // "</"
	name, err := d.name()
	if err != nil {
		return nil, err
	}
	d.space()
	if d.pos >= len(d.data) || d.data[d.pos] != '>' {
		return nil, d.errorf("invalid characters in end tag </%s>", name)
	}
	d.pos++
	return name, nil
}

// open starts what a new element maps to, before its attributes.
func (d *decoder) open(e elem, local []byte) {
	switch e {
	case elemComponent:
		kind, _ := componentKind(local)
		d.comps = append(d.comps, Component{Kind: kind})
		d.comp = &d.comps[len(d.comps)-1]
	case elemFilter:
		d.comp.Filters = append(d.comp.Filters, IntentFilter{})
		d.filter = &d.comp.Filters[len(d.comp.Filters)-1]
	case elemData:
		d.filter.Data = append(d.filter.Data, DataSpec{})
		d.spec = &d.filter.Data[len(d.filter.Data)-1]
	case elemActionName, elemCategoryName:
		d.text = d.text[:0]
	}
}

// close ends what an element maps to, after its content.
func (d *decoder) close(e elem) {
	switch e {
	case elemActionName:
		d.filter.Actions = append(d.filter.Actions, string(d.text))
	case elemCategoryName:
		d.filter.Categories = append(d.filter.Categories, string(d.text))
	}
}

// attr applies one attribute, by local name, to what element e maps to;
// any other attribute is ignored.
func (d *decoder) attr(e elem, local, val []byte) error {
	var err error
	switch e {
	case elemManifest:
		switch string(local) {
		case "package":
			d.m.Package = string(val)
		case "versionCode":
			d.m.VersionCode, err = parseInt(val)
		case "versionName":
			d.m.VersionName = string(val)
		}
	case elemUsesSDK:
		switch string(local) {
		case "minSdkVersion":
			d.m.MinSDK, err = parseInt(val)
		case "targetSdkVersion":
			d.m.TargetSDK, err = parseInt(val)
		}
	case elemComponent:
		switch string(local) {
		case "name":
			d.comp.Name = string(val)
		case "exported":
			d.comp.Exported, err = parseBool(val)
		}
	case elemData:
		switch string(local) {
		case "scheme":
			d.spec.Scheme = string(val)
		case "host":
			d.spec.Host = string(val)
		}
	}
	return err
}

// parseInt and parseBool read an attribute value as encoding/xml does:
// empty is zero, otherwise surrounding space is trimmed.
func parseInt(val []byte) (int, error) {
	if len(val) == 0 {
		return 0, nil
	}
	n, err := strconv.ParseInt(strings.TrimSpace(string(val)), 10, strconv.IntSize)
	return int(n), err
}

func parseBool(val []byte) (bool, error) {
	if len(val) == 0 {
		return false, nil
	}
	return strconv.ParseBool(strings.TrimSpace(string(val)))
}

// name reads an element, attribute or declaration name at d.pos: ASCII
// name characters, a letter, '_' or ':' first, and at most one ':'.
func (d *decoder) name() ([]byte, error) {
	start := d.pos
	for d.pos < len(d.data) && isNameByte(d.data[d.pos]) {
		d.pos++
	}
	if d.pos < len(d.data) && d.data[d.pos] >= utf8.RuneSelf {
		return nil, d.errorf("non-ASCII name")
	}
	name := d.data[start:d.pos]
	if len(name) == 0 {
		return nil, d.errorf("expected a name")
	}
	if c := name[0]; c >= '0' && c <= '9' || c == '-' || c == '.' {
		return nil, d.errorf("invalid name %q", name)
	}
	if bytes.Count(name, []byte(":")) > 1 {
		return nil, d.errorf("invalid name %q", name)
	}
	return name, nil
}

// rawValue reads `= "value"` (either quote, space allowed around '=') at
// d.pos and returns the value between the quotes, undecoded.
func (d *decoder) rawValue() ([]byte, error) {
	d.space()
	if d.pos >= len(d.data) || d.data[d.pos] != '=' {
		return nil, d.errorf("attribute without =")
	}
	d.pos++
	d.space()
	if d.pos >= len(d.data) || d.data[d.pos] != '"' && d.data[d.pos] != '\'' {
		return nil, d.errorf("unquoted attribute value")
	}
	q := d.data[d.pos]
	end := bytes.IndexByte(d.data[d.pos+1:], q)
	if end < 0 {
		return nil, d.errorf("unexpected EOF in attribute value")
	}
	raw := d.data[d.pos+1 : d.pos+1+end]
	d.pos += end + 2
	return raw, nil
}

// localName is a name without its namespace prefix: what follows its ':'
// when the prefix and the rest are both non-empty, as encoding/xml splits
// names.
func localName(name []byte) []byte {
	if i := bytes.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[i+1:]
	}
	return name
}

// chars decodes raw character data, text between tags or (attr) an
// attribute value, as encoding/xml does: predefined entities and numeric
// character references replaced, CR and CRLF folded to LF, the result
// valid UTF-8 of XML characters, and in text no "]]>". The result aliases
// raw when decoding changes nothing, else d.buf.
func (d *decoder) chars(raw []byte, attr bool) ([]byte, error) {
	if !attr && bytes.Contains(raw, []byte("]]>")) {
		return nil, d.errorf("unescaped ]]> in text")
	}
	out := raw
	if bytes.IndexByte(raw, '&') >= 0 || bytes.IndexByte(raw, '\r') >= 0 {
		out = d.buf[:0]
		for i := 0; i < len(raw); {
			switch c := raw[i]; c {
			case '\r':
				out = append(out, '\n')
				if i++; i < len(raw) && raw[i] == '\n' {
					i++
				}
			case '&':
				r, n := reference(raw[i:])
				if n == 0 {
					return nil, d.errorf("invalid character entity in %q", raw)
				}
				out = utf8.AppendRune(out, r)
				i += n
			default:
				out = append(out, c)
				i++
			}
		}
		d.buf = out
	}
	for i := 0; i < len(out); {
		if c := out[i]; c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return nil, d.errorf("illegal character code %U", rune(c))
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(out[i:])
		if r == utf8.RuneError && n == 1 {
			return nil, d.errorf("invalid UTF-8")
		}
		if !isXMLChar(r) {
			return nil, d.errorf("illegal character code %U", r)
		}
		i += n
	}
	return out, nil
}

// predefined are the five entities XML defines without a declaration.
var predefined = [...]struct {
	ref string
	r   rune
}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}}

// reference decodes the entity or character reference at the start of s
// (s[0] is '&') and returns its rune and length, or a zero length when it
// is none the decoder accepts.
func reference(s []byte) (rune, int) {
	if len(s) > 1 && s[1] == '#' {
		i, base := 2, rune(10)
		if i < len(s) && s[i] == 'x' {
			i, base = i+1, 16
		}
		start := i
		var r rune
		for ; i < len(s); i++ {
			v := digitValue(s[i])
			if v >= base {
				break
			}
			if r = r*base + v; r > unicode.MaxRune {
				return 0, 0
			}
		}
		if i == start || i == len(s) || s[i] != ';' {
			return 0, 0
		}
		return r, i + 1
	}
	for _, p := range predefined {
		if bytes.HasPrefix(s, []byte(p.ref)) {
			return p.r, len(p.ref)
		}
	}
	return 0, 0
}

// digitValue is c's value as a hexadecimal digit, or 16 when it is none.
func digitValue(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return 16
}

// isXMLChar reports whether r is in the XML Char production.
func isXMLChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= unicode.MaxRune
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

func isSpaceByte(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// space skips whitespace at d.pos.
func (d *decoder) space() {
	for d.pos < len(d.data) && isSpaceByte(d.data[d.pos]) {
		d.pos++
	}
}
