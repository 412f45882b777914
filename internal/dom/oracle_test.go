package dom

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// oracleTagBody is the map-based tag parser the attribute slice replaced:
// the reference the fuzz target holds Parse's attributes to.
func oracleTagBody(raw string) (string, map[string]string) {
	i := 0
	for i < len(raw) && !isSpace(raw[i]) {
		i++
	}
	tag := strings.ToLower(raw[:i])
	attrs := make(map[string]string)
	for i < len(raw) {
		for i < len(raw) && isSpace(raw[i]) {
			i++
		}
		if i >= len(raw) {
			break
		}
		start := i
		for i < len(raw) && raw[i] != '=' && !isSpace(raw[i]) {
			i++
		}
		name := strings.ToLower(raw[start:i])
		if name == "" {
			i++
			continue
		}
		if i >= len(raw) || raw[i] != '=' {
			attrs[name] = "" // boolean attribute
			continue
		}
		i++ // '='
		if i < len(raw) && (raw[i] == '"' || raw[i] == '\'') {
			q := raw[i]
			i++
			vstart := i
			for i < len(raw) && raw[i] != q {
				i++
			}
			attrs[name] = raw[vstart:i]
			if i < len(raw) {
				i++
			}
		} else {
			vstart := i
			for i < len(raw) && !isSpace(raw[i]) {
				i++
			}
			attrs[name] = raw[vstart:i]
		}
	}
	return tag, attrs
}

// oracleAttributes lexes src as Parse does and returns the oracle's
// attributes of each open tag, in order. Parse appends every element to
// the open path of the tree, so that order is document order.
func oracleAttributes(src string) []map[string]string {
	p := &htmlParser{src: src}
	var out []map[string]string
	for {
		tok, ok := p.next()
		if !ok {
			return out
		}
		if tok.kind != tokOpen {
			continue
		}
		tag, attrs := oracleTagBody(tok.data)
		out = append(out, attrs)
		if !tok.selfClose && !voidElements[tag] && rawTextElements[tag] {
			p.rawUntil("</" + tag)
		}
	}
}

// oracleHTML is the map-era serialisation: attributes sorted by name.
func oracleHTML(sb *strings.Builder, n *Node, attrs map[*Node]map[string]string) {
	switch n.Type {
	case TextNode:
		sb.WriteString(n.Data)
	case CommentNode:
		fmt.Fprintf(sb, "<!--%s-->", n.Data)
	case DocumentNode:
		for _, c := range n.Children {
			oracleHTML(sb, c, attrs)
		}
	case ElementNode:
		sb.WriteByte('<')
		sb.WriteString(n.Tag)
		m := attrs[n]
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(sb, " %s=%q", k, m[k])
		}
		if voidElements[n.Tag] && len(n.Children) == 0 {
			sb.WriteString("/>")
			return
		}
		sb.WriteByte('>')
		for _, c := range n.Children {
			oracleHTML(sb, c, attrs)
		}
		fmt.Fprintf(sb, "</%s>", n.Tag)
	}
}

// checkAttributesAgainstOracle holds every element of d to the oracle:
// the same (name, value) pairs, names unique and lower-case, and the same
// OuterHTML.
func checkAttributesAgainstOracle(t *testing.T, src string, d *Document) {
	t.Helper()
	want := oracleAttributes(src)
	var els []*Node
	d.Root.Walk(func(n *Node) bool {
		if n.Type == ElementNode {
			els = append(els, n)
		}
		return true
	})
	if len(els) != len(want) {
		t.Fatalf("%d elements, oracle lexed %d open tags", len(els), len(want))
	}
	byNode := make(map[*Node]map[string]string, len(els))
	for i, n := range els {
		got := make(map[string]string, len(n.Attributes))
		for _, a := range n.Attributes {
			if _, dup := got[a.Name]; dup {
				t.Fatalf("<%s> holds %q twice: %+v", n.Tag, a.Name, n.Attributes)
			}
			if a.Name != strings.ToLower(a.Name) {
				t.Fatalf("<%s> attribute %q is not lower-case", n.Tag, a.Name)
			}
			got[a.Name] = a.Value
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("<%s> attributes %+v, oracle %v", n.Tag, n.Attributes, want[i])
		}
		byNode[n] = want[i]
	}
	var sb strings.Builder
	oracleHTML(&sb, d.Root, byNode)
	if got := OuterHTML(d.Root); got != sb.String() {
		t.Fatalf("OuterHTML\n%s\noracle\n%s", got, sb.String())
	}
}

// TestAttributesSourceOrder pins the slice's order and the duplicate rule.
func TestAttributesSourceOrder(t *testing.T) {
	d := Parse(`<a X=1 href="/h" x=3 data-y>`)
	a := d.GetElementsByTagName("a")[0]
	want := []Attribute{{"x", "3"}, {"href", "/h"}, {"data-y", ""}}
	if !reflect.DeepEqual(a.Attributes, want) {
		t.Errorf("attributes %+v, want %+v", a.Attributes, want)
	}
	if !a.HasAttr("DATA-Y") || a.HasAttr("y") {
		t.Error("HasAttr misreads presence")
	}
	if got := OuterHTML(a); got != `<a data-y="" href="/h" x="3"></a>` {
		t.Errorf("OuterHTML = %s", got)
	}
	// Every tag is parsed in the same scratch slice: growing one
	// element's attributes must not write over the next one's.
	d = Parse(`<i a=1><b c=2>`)
	i, b := d.GetElementsByTagName("i")[0], d.GetElementsByTagName("b")[0]
	i.SetAttr("z", "9")
	if b.Attr("c") != "2" || len(b.Attributes) != 1 || i.Attr("z") != "9" {
		t.Errorf("SetAttr leaked into a neighbour: i=%+v b=%+v", i.Attributes, b.Attributes)
	}
	checkAttributesAgainstOracle(t, page, Parse(page))
}
