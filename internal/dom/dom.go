// Package dom provides the HTML document model the browser simulation
// renders and injected JavaScript manipulates: a tokenising parser, an
// element tree, tag-frequency counts (Table 8's "DOM tag counts"
// injection), and the query operations the Web APIs of Table 9 rely on
// (getElementById, getElementsByTagName, querySelectorAll, createElement,
// insertBefore, …).
package dom

import (
	"fmt"
	"sort"
	"strings"
)

// NodeType distinguishes element and text nodes.
type NodeType int

// Node types.
const (
	ElementNode NodeType = iota
	TextNode
	CommentNode
	DocumentNode
)

// Attribute is one element attribute.
type Attribute struct {
	Name  string // lower-case
	Value string
}

// Node is one DOM node. Element nodes have a Tag and Attributes; text and
// comment nodes carry Data.
type Node struct {
	Type NodeType
	Tag  string // lower-case element name
	// Attributes are in source order, each name once: a repeated name
	// keeps its first position and its last value.
	Attributes []Attribute
	Data       string // text/comment content
	Parent     *Node
	Children   []*Node
}

// attr returns the index of the named attribute, or -1.
func (n *Node) attr(name string) int {
	name = strings.ToLower(name)
	for i := range n.Attributes {
		if n.Attributes[i].Name == name {
			return i
		}
	}
	return -1
}

// Attr returns an attribute value ("" when absent).
func (n *Node) Attr(name string) string {
	if i := n.attr(name); i >= 0 {
		return n.Attributes[i].Value
	}
	return ""
}

// HasAttr reports whether the attribute is present, even with an empty
// value (<video controls>, id="").
func (n *Node) HasAttr(name string) bool { return n.attr(name) >= 0 }

// SetAttr sets an attribute.
func (n *Node) SetAttr(name, value string) {
	if i := n.attr(name); i >= 0 {
		n.Attributes[i].Value = value
		return
	}
	n.Attributes = append(n.Attributes, Attribute{strings.ToLower(name), value})
}

// ID returns the element's id attribute.
func (n *Node) ID() string { return n.Attr("id") }

// AppendChild adds a child (re-parenting it if needed).
func (n *Node) AppendChild(c *Node) {
	c.Detach()
	c.Parent = n
	n.Children = append(n.Children, c)
}

// InsertBefore inserts newChild before ref among n's children; when ref is
// nil or not a child, newChild is appended.
func (n *Node) InsertBefore(newChild, ref *Node) {
	newChild.Detach()
	newChild.Parent = n
	if ref != nil {
		for i, c := range n.Children {
			if c == ref {
				n.Children = append(n.Children[:i], append([]*Node{newChild}, n.Children[i:]...)...)
				return
			}
		}
	}
	n.Children = append(n.Children, newChild)
}

// Detach removes the node from its parent.
func (n *Node) Detach() {
	p := n.Parent
	if p == nil {
		return
	}
	for i, c := range p.Children {
		if c == n {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	n.Parent = nil
}

// Walk visits n and its descendants in document order; returning false
// from f stops the walk.
func (n *Node) Walk(f func(*Node) bool) bool {
	if !f(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.Walk(f) {
			return false
		}
	}
	return true
}

// Text concatenates the text content of the subtree.
func (n *Node) Text() string {
	var sb strings.Builder
	n.Walk(func(m *Node) bool {
		if m.Type == TextNode {
			sb.WriteString(m.Data)
		}
		return true
	})
	return strings.TrimSpace(sb.String())
}

// Document is a parsed HTML document.
type Document struct {
	Root  *Node // the document node
	Title string
	URL   string
}

// Body returns the <body> element, or nil.
func (d *Document) Body() *Node { return d.first("body") }

// Head returns the <head> element, or nil.
func (d *Document) Head() *Node { return d.first("head") }

func (d *Document) first(tag string) *Node {
	var found *Node
	d.Root.Walk(func(n *Node) bool {
		if n.Type == ElementNode && n.Tag == tag {
			found = n
			return false
		}
		return true
	})
	return found
}

// GetElementByID implements document.getElementById.
func (d *Document) GetElementByID(id string) *Node {
	var found *Node
	d.Root.Walk(func(n *Node) bool {
		if n.Type == ElementNode && n.ID() == id {
			found = n
			return false
		}
		return true
	})
	return found
}

// GetElementsByTagName implements document.getElementsByTagName ("*"
// matches every element).
func (d *Document) GetElementsByTagName(tag string) []*Node {
	tag = strings.ToLower(tag)
	var out []*Node
	d.Root.Walk(func(n *Node) bool {
		if n.Type == ElementNode && (tag == "*" || n.Tag == tag) {
			out = append(out, n)
		}
		return true
	})
	return out
}

// QuerySelectorAll supports the selector subset the measured injections
// use: "tag", "#id", ".class", "tag.class" and comma lists.
func (d *Document) QuerySelectorAll(selector string) []*Node {
	var out []*Node
	seen := make(map[*Node]bool)
	for _, sel := range strings.Split(selector, ",") {
		sel = strings.TrimSpace(sel)
		if sel == "" {
			continue
		}
		d.Root.Walk(func(n *Node) bool {
			if n.Type == ElementNode && matches(n, sel) && !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
			return true
		})
	}
	return out
}

func matches(n *Node, sel string) bool {
	switch {
	case sel == "*":
		return true
	case strings.HasPrefix(sel, "#"):
		return n.ID() == sel[1:]
	case strings.HasPrefix(sel, "."):
		return hasClass(n, sel[1:])
	case strings.Contains(sel, "."):
		parts := strings.SplitN(sel, ".", 2)
		return n.Tag == strings.ToLower(parts[0]) && hasClass(n, parts[1])
	default:
		return n.Tag == strings.ToLower(sel)
	}
}

func hasClass(n *Node, class string) bool {
	for _, c := range strings.Fields(n.Attr("class")) {
		if c == class {
			return true
		}
	}
	return false
}

// CreateElement implements document.createElement; the node is detached.
func (d *Document) CreateElement(tag string) *Node {
	return &Node{Type: ElementNode, Tag: strings.ToLower(tag)}
}

// TagCounts returns the frequency dictionary of element tags, the payload
// of the Facebook/Instagram DOM-count injection (Table 8).
func (d *Document) TagCounts() map[string]int {
	counts := make(map[string]int)
	d.Root.Walk(func(n *Node) bool {
		if n.Type == ElementNode {
			counts[n.Tag]++
		}
		return true
	})
	return counts
}

// Scripts returns the <script> elements in document order.
func (d *Document) Scripts() []*Node { return d.GetElementsByTagName("script") }

// Links returns the href values of <a> elements.
func (d *Document) Links() []string {
	var out []string
	for _, a := range d.GetElementsByTagName("a") {
		if href := a.Attr("href"); href != "" {
			out = append(out, href)
		}
	}
	return out
}

// SubresourceURLs returns the URLs of subresources the page loads:
// script[src], img[src], link[href rel=stylesheet], iframe[src],
// video/audio/source[src].
func (d *Document) SubresourceURLs() []string {
	var out []string
	d.Root.Walk(func(n *Node) bool {
		if n.Type != ElementNode {
			return true
		}
		switch n.Tag {
		case "script", "img", "iframe", "video", "audio", "source", "embed":
			if src := n.Attr("src"); src != "" {
				out = append(out, src)
			}
		case "link":
			rel := strings.ToLower(n.Attr("rel"))
			if (rel == "stylesheet" || rel == "icon") && n.Attr("href") != "" {
				out = append(out, n.Attr("href"))
			}
		}
		return true
	})
	return out
}

// OuterHTML serialises the subtree (for debugging and hashes).
func OuterHTML(n *Node) string {
	var sb strings.Builder
	writeHTML(&sb, n)
	return sb.String()
}

func writeHTML(sb *strings.Builder, n *Node) {
	switch n.Type {
	case TextNode:
		sb.WriteString(n.Data)
	case CommentNode:
		fmt.Fprintf(sb, "<!--%s-->", n.Data)
	case DocumentNode:
		for _, c := range n.Children {
			writeHTML(sb, c)
		}
	case ElementNode:
		sb.WriteByte('<')
		sb.WriteString(n.Tag)
		attrs := append([]Attribute(nil), n.Attributes...)
		sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
		for _, a := range attrs {
			fmt.Fprintf(sb, " %s=%q", a.Name, a.Value)
		}
		if voidElements[n.Tag] && len(n.Children) == 0 {
			sb.WriteString("/>")
			return
		}
		sb.WriteByte('>')
		for _, c := range n.Children {
			writeHTML(sb, c)
		}
		fmt.Fprintf(sb, "</%s>", n.Tag)
	}
}
