package dom

import (
	"reflect"
	"strings"
	"testing"
)

const page = `<!DOCTYPE html>
<html>
<head>
  <title>Test Page</title>
  <link rel="stylesheet" href="/style.css">
  <script src="/app.js"></script>
</head>
<body class="main dark">
  <h1 id="head">Hello</h1>
  <p>First<p>Second
  <ul>
    <li class="item">one
    <li class="item special">two
  </ul>
  <a href="https://example.com/x">link</a>
  <a href="/relative">rel</a>
  <img src="/logo.png">
  <script>var x = "<p>not a tag</p>";</script>
  <!-- a comment -->
  <div id="app"><span>inner</span></div>
</body>
</html>`

func TestParseBasicStructure(t *testing.T) {
	d := Parse(page)
	if d.Title != "Test Page" {
		t.Errorf("Title = %q", d.Title)
	}
	if d.Body() == nil || d.Head() == nil {
		t.Fatal("missing body or head")
	}
	if got := d.GetElementByID("head"); got == nil || got.Text() != "Hello" {
		t.Errorf("GetElementByID(head) = %+v", got)
	}
	if got := d.GetElementByID("nope"); got != nil {
		t.Errorf("GetElementByID(nope) = %+v", got)
	}
}

func TestImplicitClose(t *testing.T) {
	d := Parse(page)
	ps := d.GetElementsByTagName("p")
	if len(ps) != 2 {
		t.Fatalf("p count = %d, want 2", len(ps))
	}
	if ps[0].Text() != "First" || !strings.HasPrefix(ps[1].Text(), "Second") {
		t.Errorf("p texts = %q, %q", ps[0].Text(), ps[1].Text())
	}
	lis := d.GetElementsByTagName("li")
	if len(lis) != 2 {
		t.Errorf("li count = %d, want 2", len(lis))
	}
}

func TestScriptRawText(t *testing.T) {
	d := Parse(page)
	scripts := d.Scripts()
	if len(scripts) != 2 {
		t.Fatalf("script count = %d", len(scripts))
	}
	if !strings.Contains(scripts[1].Text(), "<p>not a tag</p>") {
		t.Errorf("script content parsed as markup: %q", scripts[1].Text())
	}
	// The fake tag inside the script must not become a p element.
	if n := len(d.GetElementsByTagName("p")); n != 2 {
		t.Errorf("p count with script tag = %d", n)
	}
}

func TestQuerySelectorAll(t *testing.T) {
	d := Parse(page)
	cases := []struct {
		sel  string
		want int
	}{
		{"li", 2},
		{".item", 2},
		{".special", 1},
		{"li.special", 1},
		{"#app", 1},
		{"a, img", 3},
		{"nothing", 0},
	}
	for _, c := range cases {
		if got := len(d.QuerySelectorAll(c.sel)); got != c.want {
			t.Errorf("QuerySelectorAll(%q) = %d, want %d", c.sel, got, c.want)
		}
	}
}

func TestTagCounts(t *testing.T) {
	d := Parse(page)
	counts := d.TagCounts()
	for tag, want := range map[string]int{"p": 2, "li": 2, "a": 2, "script": 2, "img": 1, "div": 1} {
		if counts[tag] != want {
			t.Errorf("TagCounts[%s] = %d, want %d", tag, counts[tag], want)
		}
	}
}

func TestLinksAndSubresources(t *testing.T) {
	d := Parse(page)
	if got := d.Links(); !reflect.DeepEqual(got, []string{"https://example.com/x", "/relative"}) {
		t.Errorf("Links = %v", got)
	}
	subs := d.SubresourceURLs()
	want := map[string]bool{"/style.css": true, "/app.js": true, "/logo.png": true}
	if len(subs) != len(want) {
		t.Fatalf("subresources = %v", subs)
	}
	for _, s := range subs {
		if !want[s] {
			t.Errorf("unexpected subresource %q", s)
		}
	}
}

func TestCreateInsertDetach(t *testing.T) {
	d := Parse(page)
	app := d.GetElementByID("app")
	span := app.Children[0]
	newEl := d.CreateElement("SCRIPT")
	if newEl.Tag != "script" {
		t.Errorf("CreateElement tag = %q", newEl.Tag)
	}
	app.InsertBefore(newEl, span)
	if app.Children[0] != newEl || newEl.Parent != app {
		t.Error("InsertBefore misplaced node")
	}
	newEl.Detach()
	if len(app.Children) != 1 || newEl.Parent != nil {
		t.Error("Detach failed")
	}
	// InsertBefore with nil ref appends.
	app.InsertBefore(newEl, nil)
	if app.Children[len(app.Children)-1] != newEl {
		t.Error("InsertBefore(nil) did not append")
	}
}

func TestAttributes(t *testing.T) {
	d := Parse(`<input type=checkbox checked value='a b'>`)
	in := d.GetElementsByTagName("input")[0]
	if in.Attr("type") != "checkbox" || in.Attr("value") != "a b" {
		t.Errorf("attrs = %+v", in.Attributes)
	}
	if !in.HasAttr("checked") || in.HasAttr("disabled") {
		t.Error("boolean attribute lost")
	}
	in.SetAttr("Data-X", "1")
	if in.Attr("data-x") != "1" {
		t.Error("SetAttr case-insensitivity broken")
	}
}

func TestMalformedInputs(t *testing.T) {
	// None of these may panic; structure checks are best-effort.
	for _, src := range []string{
		"", "<", "<>", "</close-only>", "<div", "<div><span></div>",
		"<!-- unterminated", "<script>never closed", `<a href="unclosed>`,
		"text only", "<p></p></p></p>", "< notatag >",
	} {
		d := Parse(src)
		if d == nil || d.Root == nil {
			t.Errorf("Parse(%q) returned nil document", src)
		}
	}
}

func TestOuterHTMLRoundTrips(t *testing.T) {
	d := Parse(`<div id="x" class="y"><b>bold</b> text</div>`)
	out := OuterHTML(d.Root)
	for _, want := range []string{`<div`, `id="x"`, `class="y"`, `<b>bold</b>`, `text`} {
		if !strings.Contains(out, want) {
			t.Errorf("OuterHTML missing %q: %s", want, out)
		}
	}
	// Re-parsing the serialisation preserves the tag census.
	if !reflect.DeepEqual(Parse(out).TagCounts(), d.TagCounts()) {
		t.Error("serialise/parse round trip changed tag counts")
	}
}

func TestVoidElements(t *testing.T) {
	d := Parse(`<div><br><img src=x><hr>after</div>`)
	div := d.GetElementsByTagName("div")[0]
	if div.Text() != "after" {
		t.Errorf("void elements swallowed text: %q", div.Text())
	}
	if n := len(d.GetElementsByTagName("br")); n != 1 {
		t.Errorf("br count = %d", n)
	}
}

// TestRawTextNonASCII pins raw-text bodies whose lower-cased form changes
// byte length (invalid UTF-8 grows, 'İ' grows): the close tag is found on
// the source bytes, so nothing panics and no part of it leaks into text.
func TestRawTextNonASCII(t *testing.T) {
	for _, c := range []struct{ src, tag, raw, text string }{
		{"<script>\xe2\xe2\xe2\xe2\xe2</script>", "script", "\xe2\xe2\xe2\xe2\xe2", "\xe2\xe2\xe2\xe2\xe2"},
		{"<script>\xe2</script><p>x</p>", "script", "\xe2", "\xe2x"},
		{"<style>İİ</STYLE><p>x</p>", "style", "İİ", "İİx"},
	} {
		d := Parse(c.src)
		els := d.GetElementsByTagName(c.tag)
		if len(els) != 1 || els[0].Text() != c.raw {
			t.Errorf("Parse(%q): %d <%s> elements, want one holding %q", c.src, len(els), c.tag, c.raw)
		}
		if got := d.Root.Text(); got != c.text {
			t.Errorf("Parse(%q): document text %q, want %q", c.src, got, c.text)
		}
	}
}

// FuzzParse asserts Parse never panics, builds at most one node per
// source byte plus the document root, and gives every element exactly the
// attributes the map-based tag parser (oracle_test.go) finds, with the
// same serialisation. testdata/fuzz/FuzzParse holds the inputs
// TestRawTextNonASCII pins.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		page, "<div", "<!-- x", "</p>", "<a href='x>y'>", "<script>never closed",
		`<a x=1 y=2 x=3 Y="4">`, `<DIV ID="Up" Class=a CLASS=b>`,
		`<input checked disabled value="" checked=yes>`, `<html amp><video controls id="">`,
		`<p title="unterminated>text`, `<img alt='half src=x>`, `<a =v b= c="">`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d := Parse(src)
		nodes := 0
		d.Root.Walk(func(*Node) bool { nodes++; return true })
		if nodes > len(src)+1 {
			t.Errorf("%d nodes from %d bytes", nodes, len(src))
		}
		checkAttributesAgainstOracle(t, src, d)
	})
}
