package dom

import (
	"slices"
	"strings"
)

// voidElements never take children.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// rawTextElements swallow their content verbatim until the matching close
// tag.
var rawTextElements = map[string]bool{"script": true, "style": true}

// Parse builds a Document from HTML source. The parser is a pragmatic
// tokenizer: tolerant of unclosed tags and attribute-quoting styles, with
// implicit closing for the common cases (<p>, <li>), void-element handling
// and raw-text script/style bodies — enough fidelity for the measured
// pages, not a full HTML5 tree constructor.
func Parse(src string) *Document {
	doc := &Document{Root: &Node{Type: DocumentNode}}
	p := &htmlParser{src: src}
	stack := []*Node{doc.Root}
	top := func() *Node { return stack[len(stack)-1] }

	for {
		tok, ok := p.next()
		if !ok {
			break
		}
		switch tok.kind {
		case tokText:
			if strings.TrimSpace(tok.data) != "" || len(stack) > 1 {
				top().AppendChild(&Node{Type: TextNode, Data: tok.data})
			}
		case tokComment:
			top().AppendChild(&Node{Type: CommentNode, Data: tok.data})
		case tokOpen:
			n := &Node{Type: ElementNode}
			n.Tag, n.Attributes = p.parseTagBody(tok.data)
			// Implicit closes: a new <p>/<li>/<tr>/<td> closes an open one.
			if implicitClose[n.Tag] {
				for len(stack) > 1 && top().Tag == n.Tag {
					stack = stack[:len(stack)-1]
				}
			}
			top().AppendChild(n)
			if tok.selfClose || voidElements[n.Tag] {
				break
			}
			if rawTextElements[n.Tag] {
				n.AppendChild(&Node{Type: TextNode, Data: p.rawUntil("</" + n.Tag)})
				break
			}
			stack = append(stack, n)
		case tokClose:
			// Pop to the nearest matching open element; ignore strays.
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Tag == tok.tag {
					stack = stack[:i]
					break
				}
			}
		}
	}

	if t := doc.first("title"); t != nil {
		doc.Title = t.Text()
	}
	return doc
}

var implicitClose = map[string]bool{"p": true, "li": true, "tr": true, "td": true, "th": true, "option": true}

type htmlTokKind int

const (
	tokText htmlTokKind = iota
	tokOpen
	tokClose
	tokComment
)

// htmlToken is one lexed token. data holds text and comment content, and
// an open tag's raw body (name and attributes, without the '<', the '>'
// and a self-closing '/').
type htmlToken struct {
	kind      htmlTokKind
	tag       string // close tags
	data      string
	selfClose bool
}

type htmlParser struct {
	src   string
	pos   int
	attrs []Attribute // scratch: the tag being parsed
}

func (p *htmlParser) next() (htmlToken, bool) {
	if p.pos >= len(p.src) {
		return htmlToken{}, false
	}
	if p.src[p.pos] != '<' {
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != '<' {
			p.pos++
		}
		return htmlToken{kind: tokText, data: p.src[start:p.pos]}, true
	}
	// Comment?
	if strings.HasPrefix(p.src[p.pos:], "<!--") {
		end := strings.Index(p.src[p.pos+4:], "-->")
		if end < 0 {
			data := p.src[p.pos+4:]
			p.pos = len(p.src)
			return htmlToken{kind: tokComment, data: data}, true
		}
		data := p.src[p.pos+4 : p.pos+4+end]
		p.pos += 4 + end + 3
		return htmlToken{kind: tokComment, data: data}, true
	}
	// Doctype / processing instruction: skip to '>'.
	if strings.HasPrefix(p.src[p.pos:], "<!") || strings.HasPrefix(p.src[p.pos:], "<?") {
		end := strings.IndexByte(p.src[p.pos:], '>')
		if end < 0 {
			p.pos = len(p.src)
		} else {
			p.pos += end + 1
		}
		return p.next()
	}
	// Close tag.
	if strings.HasPrefix(p.src[p.pos:], "</") {
		end := strings.IndexByte(p.src[p.pos:], '>')
		if end < 0 {
			p.pos = len(p.src)
			return htmlToken{}, false
		}
		tag := strings.ToLower(strings.TrimSpace(p.src[p.pos+2 : p.pos+end]))
		p.pos += end + 1
		return htmlToken{kind: tokClose, tag: tag}, true
	}
	// Open tag. A bare '<' not followed by a letter is text.
	if p.pos+1 >= len(p.src) || !isAlpha(p.src[p.pos+1]) {
		p.pos++
		return htmlToken{kind: tokText, data: "<"}, true
	}
	end := p.findTagEnd()
	raw := p.src[p.pos+1 : end]
	p.pos = end + 1
	selfClose := strings.HasSuffix(raw, "/")
	raw = strings.TrimSuffix(raw, "/")
	return htmlToken{kind: tokOpen, data: raw, selfClose: selfClose}, true
}

// findTagEnd locates the terminating '>' of the tag starting at p.pos,
// respecting quoted attribute values.
func (p *htmlParser) findTagEnd() int {
	inQuote := byte(0)
	for i := p.pos + 1; i < len(p.src); i++ {
		c := p.src[i]
		switch {
		case inQuote != 0:
			if c == inQuote {
				inQuote = 0
			}
		case c == '"' || c == '\'':
			inQuote = c
		case c == '>':
			return i
		}
	}
	return len(p.src) - 1
}

// rawUntil consumes raw text up to (not including) the lower-case ASCII
// marker, matched case-insensitively on the source bytes, leaving the
// parser positioned at the marker's close tag.
func (p *htmlParser) rawUntil(marker string) string {
	start := p.pos
	for i := start; i+len(marker) <= len(p.src); i++ {
		if hasPrefixFoldASCII(p.src[i:], marker) {
			p.pos = i
			return p.src[start:i]
		}
	}
	p.pos = len(p.src)
	return p.src[start:]
}

// hasPrefixFoldASCII reports whether s starts with the lower-case ASCII
// prefix, ignoring the case of ASCII letters in s. Unlike matching in a
// strings.ToLower copy, it never shifts an offset: ToLower changes the
// byte length of invalid UTF-8 and of letters such as 'İ'.
func hasPrefixFoldASCII(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// parseTagBody splits an open tag's raw body into its lower-case name and
// its attributes, in source order with names lower-case and unique (the
// last value of a repeated name wins).
func (p *htmlParser) parseTagBody(raw string) (string, []Attribute) {
	i := 0
	for i < len(raw) && !isSpace(raw[i]) {
		i++
	}
	tag := strings.ToLower(raw[:i])
	p.attrs = p.attrs[:0]
	set := func(name, value string) {
		for j := range p.attrs {
			if p.attrs[j].Name == name {
				p.attrs[j].Value = value
				return
			}
		}
		p.attrs = append(p.attrs, Attribute{name, value})
	}
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
			set(name, "") // boolean attribute
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
			set(name, raw[vstart:i])
			if i < len(raw) {
				i++
			}
		} else {
			vstart := i
			for i < len(raw) && !isSpace(raw[i]) {
				i++
			}
			set(name, raw[vstart:i])
		}
	}
	if len(p.attrs) == 0 {
		return tag, nil
	}
	return tag, slices.Clone(p.attrs)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
