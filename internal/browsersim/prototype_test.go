package browsersim

import "testing"

// execPage runs script on a fresh bindings page and returns its completion
// value. TestDifferentialPageBindings (internal/jsvm) runs the scripts of
// this file on the reference tree walker too and asserts it agrees.
func execPage(t *testing.T, script string) string {
	t.Helper()
	out, err := loadB(t, bindingsSite(t), nil).Execute(script)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestParentNodeIsLive(t *testing.T) {
	out := execPage(t, `
var d = document.createElement("div");
var before = d.parentNode;
document.body.appendChild(d);
var after = d.parentNode === document.body;
var a = document.getElementById("a");
var b = document.getElementById("b");
a.removeChild(b);
(before === null) + "|" + after + "|" + (b.parentNode === null) + "|" + (a.parentNode === document.body);`)
	if out != "true|true|true|true" {
		t.Errorf("out = %q", out)
	}
}

func TestIDIsLive(t *testing.T) {
	out := execPage(t, `
var a = document.getElementById("a");
a.setAttribute("id", "renamed");
a.id + "|" + (document.getElementById("renamed") === a);`)
	if out != "renamed|true" {
		t.Errorf("out = %q", out)
	}
}

func TestTextContentIsLive(t *testing.T) {
	out := execPage(t, `
var a = document.getElementById("a");
var before = a.textContent;
a.removeChild(document.getElementById("b"));
before + "|" + a.textContent + "|" + document.getElementById("a").tagName;`)
	if out != "x||DIV" {
		t.Errorf("out = %q", out)
	}
}

// TestOperationsLiveOnPrototypes pins one function object per operation
// per page, as browsers keep one per interface.
func TestOperationsLiveOnPrototypes(t *testing.T) {
	out := execPage(t, `
var a = document.getElementById("a");
var d = document.createElement("div");
var all = document.getElementsByTagName("*");
var sel = document.querySelectorAll("div");
var x1 = new XMLHttpRequest(), x2 = new XMLHttpRequest();
[a.getAttribute === d.getAttribute,
 document.body.appendChild === d.appendChild,
 all.item === a.getElementsByTagName("span").item,
 all.item === sel.item,
 x1.open === x2.open].join(",");`)
	if out != "true,true,true,false,true" {
		t.Errorf("out = %q", out)
	}
}

func TestDetachedOperationIsIllegalInvocation(t *testing.T) {
	for _, call := range []string{
		`var f = document.getElementById("a").getAttribute; f("id");`,
		`var f = document.getElementById("a").appendChild; f.call({}, document.createElement("p"));`,
		`var f = document.getElementsByTagName("*").item; f(0);`,
		`var f = new XMLHttpRequest().open; f("GET", "/beacon");`,
	} {
		out := execPage(t, `var r = "no throw"; try { `+call+` } catch (e) { r = e.name + ": " + e.message } r`)
		if out != "TypeError: Illegal invocation" {
			t.Errorf("%s => %q", call, out)
		}
	}
}

// TestWrapperEnumeration pins what scripts can enumerate on a wrapper:
// for-in lists the twelve inherited Element members, while
// hasOwnProperty, Object.keys and JSON.stringify see only what script
// wrote, as in browsers.
func TestWrapperEnumeration(t *testing.T) {
	out := execPage(t, `
var a = document.getElementById("a");
var ks = [];
for (var k in a) { ks.push(k); }
ks.join(",") + "|" + ("tagName" in a) + "|" + a.hasOwnProperty("tagName") + "|" +
    Object.keys(a).length + "|" + JSON.stringify(a);`)
	want := "addEventListener,appendChild,getAttribute,getElementsByTagName,hasAttribute,id," +
		"insertBefore,parentNode,removeChild,setAttribute,tagName,textContent|true|false|0|{}"
	if out != want {
		t.Errorf("out  = %q\nwant = %q", out, want)
	}
}

// TestScriptWritesStayOnWrapper pins that an own property shadows the
// inherited member and that no write reaches the shared prototype.
func TestScriptWritesStayOnWrapper(t *testing.T) {
	out := execPage(t, `
var a = document.getElementById("a");
var d = document.createElement("div");
a.tagName = "MINE";
a.getAttribute = function() { return "shadowed"; };
var r = [a.tagName, a.getAttribute("id"), d.tagName, d.getAttribute("id"),
         a.hasOwnProperty("tagName"), Object.keys(a).join(",")];
delete a.tagName;
r.push(a.tagName);
r.join(",");`)
	if out != "MINE,shadowed,DIV,,true,getAttribute,tagName,DIV" {
		t.Errorf("out = %q", out)
	}
}

// TestPrototypesArePerPage pins that two pages never share a prototype.
func TestPrototypesArePerPage(t *testing.T) {
	srv := bindingsSite(t)
	p1, p2 := loadB(t, srv, nil), loadB(t, srv, nil)
	if p1.elementProto == p2.elementProto || p1.htmlCollectionProto == p2.htmlCollectionProto ||
		p1.nodeListProto == p2.nodeListProto || p1.xhrProto == p2.xhrProto {
		t.Error("prototype object shared between two pages")
	}
}
