package manifest

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// acceptedXML are hand-written manifests of Encode's shape that both
// Decode and the encoding/xml oracle accept: namespace prefixes, comments,
// entities and character references, CRLF, single quotes, components out
// of kind order, repeated and unknown elements.
var acceptedXML = map[string]string{
	"android namespaces": `<?xml version="1.0" encoding="utf-8"?>
<!-- generated -->
<manifest xmlns:android="http://schemas.android.com/apk/res/android"
    package="com.example.ns" android:versionCode="7" android:versionName="7.0">
  <uses-sdk android:minSdkVersion="21" android:targetSdkVersion="34"/>
  <application android:label="x">
    <service android:name=".Sync"/>
    <activity android:name="com.example.ns.Main" android:exported="true">
      <intent-filter android:priority="3">
        <action android:name="ignored"><name>android.intent.action.MAIN</name></action>
        <category><name>android.intent.category.LAUNCHER</name></category>
      </intent-filter>
    </activity>
    <receiver android:name="R" exported=" 1 "/>
    <provider name="P"></provider>
  </application>
</manifest>
`,
	"references": `<manifest package="a&amp;b&#x41;&#66;&lt;&gt;&quot;&apos;&#xD800;&#9;">` +
		`<application><activity name="x&#13;y"><intent-filter>` +
		"<action><name>one\r\ntwo\rthree<!-- split -->four<skip>gone</skip>&#x10FFFF;</name><name></name></action>" +
		`<data scheme="https" host='h"st'/><data/>` +
		`</intent-filter></activity></application></manifest>`,
	"spacing": "  \n<manifest package = 'p' versionCode=\" 42 \"\tversionName=''>\r\n" +
		`<application><activity name="a" exported="F"/></application>` +
		"</manifest  >\n<!-- trailing -->\n",
	"repeated elements": `<manifest package="p" package="q">` +
		`<uses-sdk minSdkVersion="1" targetSdkVersion="2"/><uses-sdk targetSdkVersion="3"/>` +
		`<application><activity name="a"/></application>` +
		`<application><activity name="b"><intent-filter/></activity><service name="s"/></application>` +
		`<activity name="not-in-application"/></manifest>`,
	"unknown elements": `<manifest package="p"><meta deep="1"><x><y><z/></y></x></meta>` +
		`<application><activity name="a"><intent-filter><name>stray</name>` +
		`<action><action><name>nested</name></action><other/></action>` +
		`<category>text<name>c</name></category></intent-filter></activity></application></manifest>`,
	"prefixed elements": `<m:manifest package="p"><m:application><m:activity m:name="a"/>` +
		`</m:application></m:manifest>`,
	"self-closing root": `<manifest package="p"/>`,
}

// rejectedXML are inputs encoding/xml accepts that Decode rejects, one per
// construct its doc comment names.
var rejectedXML = map[string]string{
	"DOCTYPE":            `<!DOCTYPE manifest><manifest package="p"/>`,
	"CDATA section":      `<manifest package="p"><![CDATA[x]]></manifest>`,
	"late declaration":   `<!-- c --><?xml version="1.0"?><manifest package="p"/>`,
	"other PI":           `<manifest package="p"><?pi x?></manifest>`,
	"standalone value":   `<?xml version="1.0" standalone="maybe"?><manifest package="p"/>`,
	"pseudo-attribute":   `<?xml version="1.0" other="x"?><manifest package="p"/>`,
	"non-ASCII name":     `<manifest package="p"><élément/></manifest>`,
	"text before root":   `x<manifest package="p"/>`,
	"byte-order mark":    "\ufeff<manifest package=\"p\"/>",
	"text after root":    `<manifest package="p"/>junk`,
	"element after root": `<manifest package="p"/><x/>`,
	"deep nesting": `<manifest package="p">` + strings.Repeat("<x>", maxDepth) +
		strings.Repeat("</x>", maxDepth) + `</manifest>`,
}

// bothRejectXML are inputs neither decoder accepts.
var bothRejectXML = map[string]string{
	"garbage":             "not xml at all",
	"undeclared entity":   `<manifest package="&foo;"/>`,
	"char ref zero":       `<manifest package="&#0;"/>`,
	"char ref too large":  `<manifest package="&#x110000;"/>`,
	"unterminated ref":    `<manifest package="&amp"/>`,
	"non-UTF-8 encoding":  `<?xml version="1.0" encoding="latin1"?><manifest package="p"/>`,
	"version 1.1":         `<?xml version="1.1"?><manifest package="p"/>`,
	"mismatched tags":     `<manifest package="p"><application></manifest></application>`,
	"prefix mismatch":     `<a:manifest package="p"></b:manifest>`,
	"wrong root":          `<application package="p"/>`,
	"bad versionCode":     `<manifest package="p" versionCode=" "/>`,
	"bad exported":        `<manifest package="p"><application><activity name="a" exported="yes"/></application></manifest>`,
	"empty package":       `<manifest/>`,
	"unnamed component":   `<manifest package="p"><application><service/></application></manifest>`,
	"invalid UTF-8":       "<manifest package=\"\xff\"/>",
	"control character":   "<manifest package=\"p\">\x01</manifest>",
	"]]> in text":         `<manifest package="p">]]></manifest>`,
	"< in attribute":      `<manifest package="a<b"/>`,
	"unquoted attribute":  `<manifest package=p/>`,
	"two colons":          `<manifest package="p"><a:b:c/></manifest>`,
	"digit-first name":    `<manifest package="p"><1a/></manifest>`,
	"double hyphen":       `<manifest package="p"><!-- a -- b --></manifest>`,
	"unterminated root":   `<manifest package="p">`,
	"end tag before root": `</x><manifest package="p"/>`,
}

func TestDecodeMatchesOracle(t *testing.T) {
	inputs := map[string]string{}
	for name, s := range acceptedXML {
		inputs[name] = s
	}
	for _, m := range []*Manifest{sample(), escapingManifest(rand.New(rand.NewSource(1)))} {
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		inputs["Encode "+m.Package] = string(data)
	}
	for name, s := range inputs {
		got, err := Decode([]byte(s))
		if err != nil {
			t.Errorf("%s: Decode: %v", name, err)
			continue
		}
		want, err := decodeXML([]byte(s))
		if err != nil {
			t.Errorf("%s: oracle: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestDecodeAcceptedValues pins what the hand-written inputs decode to, so
// that the oracle comparison cannot pass by both decoders going wrong.
func TestDecodeAcceptedValues(t *testing.T) {
	m, err := Decode([]byte(acceptedXML["android namespaces"]))
	if err != nil {
		t.Fatal(err)
	}
	if m.Package != "com.example.ns" || m.VersionCode != 7 || m.VersionName != "7.0" ||
		m.MinSDK != 21 || m.TargetSDK != 34 {
		t.Errorf("manifest attributes = %+v", m)
	}
	var kinds []ComponentKind
	for _, c := range m.Components {
		kinds = append(kinds, c.Kind)
	}
	if want := []ComponentKind{KindActivity, KindService, KindReceiver, KindProvider}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("component kinds = %v, want %v", kinds, want)
	}
	if got := m.LauncherActivity(); got != "com.example.ns.Main" {
		t.Errorf("LauncherActivity = %q", got)
	}
	if c := m.ComponentByName("R"); c == nil || !c.Exported {
		t.Errorf("receiver R = %+v, want exported", c)
	}

	m, err = Decode([]byte(acceptedXML["references"]))
	if err != nil {
		t.Fatal(err)
	}
	if want := "a&bAB<>\"'\uFFFD\t"; m.Package != want {
		t.Errorf("Package = %q, want %q", m.Package, want)
	}
	c := m.Components[0]
	if c.Name != "x\ry" {
		t.Errorf("Name = %q, want %q", c.Name, "x\ry")
	}
	if want := []string{"one\ntwo\nthreefour\U0010FFFF", ""}; !reflect.DeepEqual(c.Filters[0].Actions, want) {
		t.Errorf("Actions = %q, want %q", c.Filters[0].Actions, want)
	}
	if want := []DataSpec{{Scheme: "https", Host: `h"st`}, {}}; !reflect.DeepEqual(c.Filters[0].Data, want) {
		t.Errorf("Data = %+v, want %+v", c.Filters[0].Data, want)
	}
}

func TestDecodeRejectsWhatEncodeNeverWrites(t *testing.T) {
	for name, s := range rejectedXML {
		if _, err := decodeXML([]byte(s)); err != nil {
			t.Errorf("%s: the oracle rejects it too (%v); move it to bothRejectXML", name, err)
		}
		if m, err := Decode([]byte(s)); err == nil {
			t.Errorf("%s: Decode accepted it: %+v", name, m)
		}
	}
}

func TestDecodeRejectsWhatOracleRejects(t *testing.T) {
	for name, s := range bothRejectXML {
		if _, err := decodeXML([]byte(s)); err == nil {
			t.Errorf("%s: the oracle accepts it", name)
		}
		if m, err := Decode([]byte(s)); err == nil {
			t.Errorf("%s: Decode accepted it: %+v", name, m)
		}
	}
}

// escapeAlphabet are the runes names are drawn from: letters, the five
// characters XML escapes, whitespace Encode writes as character references,
// and non-ASCII characters.
var escapeAlphabet = []rune("ab.Z09&<>\"' \t\n\ré日🙂")

func escapingName(r *rand.Rand) string {
	b := make([]rune, 1+r.Intn(12))
	for i := range b {
		b[i] = escapeAlphabet[r.Intn(len(escapeAlphabet))]
	}
	return string(b)
}

// escapingManifest builds a manifest whose every string needs escaping
// somewhere; empty lists stay nil, as Decode returns them.
func escapingManifest(r *rand.Rand) *Manifest {
	m := &Manifest{
		Package:     escapingName(r),
		VersionCode: r.Intn(1000) - 10,
		MinSDK:      r.Intn(3) * 21,
		TargetSDK:   r.Intn(40),
	}
	if r.Intn(2) == 0 {
		m.VersionName = escapingName(r)
	}
	for _, kind := range componentKinds {
		for i := r.Intn(3); i > 0; i-- {
			c := Component{Kind: kind, Name: escapingName(r), Exported: r.Intn(2) == 0}
			for j := r.Intn(3); j > 0; j-- {
				var f IntentFilter
				for k := r.Intn(3); k > 0; k-- {
					f.Actions = append(f.Actions, escapingName(r))
				}
				for k := r.Intn(3); k > 0; k-- {
					f.Categories = append(f.Categories, escapingName(r))
				}
				for k := r.Intn(3); k > 0; k-- {
					f.Data = append(f.Data, DataSpec{Scheme: escapingName(r), Host: escapingName(r)})
				}
				c.Filters = append(c.Filters, f)
			}
			m.Components = append(m.Components, c)
		}
	}
	return m
}

// TestDecodeEncodeRoundTripEscaping is the property Decode(Encode(m)) == m
// over manifests whose names need escaping: &<>"', tab, newline, CR and
// non-ASCII characters.
func TestDecodeEncodeRoundTripEscaping(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		m := escapingManifest(r)
		data, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)): %v\n%s", m, err, data)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("Decode(Encode(m)) differs:\n got %+v\nwant %+v\n%s", got, m, data)
		}
	}
}

func FuzzDecode(f *testing.F) {
	for _, s := range acceptedXML {
		f.Add([]byte(s))
	}
	for _, s := range rejectedXML {
		f.Add([]byte(s))
	}
	for _, s := range bothRejectXML {
		f.Add([]byte(s))
	}
	data, err := Encode(sample())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		want, oerr := decodeXML(data)
		if err != nil {
			return // Decode may reject more than the oracle does
		}
		if oerr != nil {
			t.Fatalf("Decode accepted what the oracle rejects (%v): %+v", oerr, got)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode and the oracle differ:\n got %+v\nwant %+v", got, want)
		}
	})
}

// BenchmarkDecode decodes the sample manifest.
func BenchmarkDecode(b *testing.B) {
	data, err := Encode(sample())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeOracle decodes the same manifest with encoding/xml, the
// reference BenchmarkDecode is measured against.
func BenchmarkDecodeOracle(b *testing.B) {
	data, err := Encode(sample())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeXML(data); err != nil {
			b.Fatal(err)
		}
	}
}
