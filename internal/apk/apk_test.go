package apk

import (
	"archive/zip"
	"bytes"
	"errors"
	"testing"

	"repro/internal/android"
	"repro/internal/dalvik"
	"repro/internal/manifest"
)

func sampleInputs(t testing.TB) (*manifest.Manifest, *dalvik.File) {
	t.Helper()
	m := &manifest.Manifest{
		Package:     "com.example.pack",
		VersionCode: 1,
		Components: []manifest.Component{{
			Kind: manifest.KindActivity,
			Name: "com.example.pack.MainActivity",
		}},
	}
	dex := dalvik.NewBuilder().
		Class("com.example.pack.MainActivity", android.ActivityClass, dalvik.AccPublic).
		VoidMethod("onCreate",
			dalvik.ConstString("https://example.com"),
			dalvik.InvokeVirtual(android.WebViewClass, android.MethodLoadURL, "(String)void"),
		).
		MustBuild()
	return m, dex
}

func TestPackOpenRoundTrip(t *testing.T) {
	m, dex := sampleInputs(t)
	assets := map[string][]byte{"config.json": []byte(`{"k":1}`)}
	data, err := Pack(m, dex, assets)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if a.Package() != "com.example.pack" {
		t.Errorf("Package = %q", a.Package())
	}
	if a.Dex.ClassByName("com.example.pack.MainActivity") == nil {
		t.Error("dex lost MainActivity")
	}
	if string(a.Assets["config.json"]) != `{"k":1}` {
		t.Errorf("asset = %q", a.Assets["config.json"])
	}
	if a.Digest == "" {
		t.Error("empty digest")
	}
}

func TestPackDeterministic(t *testing.T) {
	m, dex := sampleInputs(t)
	a, err := Pack(m, dex, map[string][]byte{"b": []byte("2"), "a": []byte("1")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Pack(m, dex, map[string][]byte{"a": []byte("1"), "b": []byte("2")})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Pack output depends on asset map iteration order")
	}
}

// TestComputeDigestMatchesOpen checks that the cache-key digest equals the
// digest Open verifies, and that it comes from the payload: rewriting
// META-INF/DIGEST leaves it unchanged while Open rejects the archive.
func TestComputeDigestMatchesOpen(t *testing.T) {
	m, dex := sampleInputs(t)
	data, err := Pack(m, dex, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ComputeDigest(data)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if d != a.Digest {
		t.Errorf("ComputeDigest = %s, Open digest = %s", d, a.Digest)
	}

	tampered := rewriteEntry(t, data, DigestEntry, []byte("deadbeef"))
	td, err := ComputeDigest(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if td != d {
		t.Errorf("ComputeDigest after rewriting %s = %s, want the payload digest %s", DigestEntry, td, d)
	}
	if _, err := Open(tampered); !errors.Is(err, ErrBroken) {
		t.Errorf("Open after rewriting %s: err = %v, want ErrBroken", DigestEntry, err)
	}
}

func TestOpenRejectsNonZip(t *testing.T) {
	if _, err := Open([]byte("definitely not a zip")); !errors.Is(err, ErrBroken) {
		t.Errorf("err = %v, want ErrBroken", err)
	}
}

func TestOpenRejectsMissingEntries(t *testing.T) {
	for _, drop := range []string{ManifestEntry, DexEntry, DigestEntry} {
		m, dex := sampleInputs(t)
		data, err := Pack(m, dex, nil)
		if err != nil {
			t.Fatal(err)
		}
		stripped := rezipWithout(t, data, drop)
		if _, err := Open(stripped); !errors.Is(err, ErrBroken) {
			t.Errorf("Open without %s: err = %v, want ErrBroken", drop, err)
		}
	}
}

func TestOpenRejectsDigestMismatch(t *testing.T) {
	m, dex := sampleInputs(t)
	data, err := Pack(m, dex, nil)
	if err != nil {
		t.Fatal(err)
	}
	tampered := rewriteEntry(t, data, DigestEntry, []byte("deadbeef"))
	if _, err := Open(tampered); !errors.Is(err, ErrBroken) {
		t.Errorf("err = %v, want ErrBroken", err)
	}
}

func TestOpenRejectsCorruptDex(t *testing.T) {
	m, dex := sampleInputs(t)
	data, err := Pack(m, dex, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the dex with garbage and fix up the digest so that only the
	// dex decode fails.
	manifestXML, _ := manifest.Encode(m)
	garbage := []byte("SDEXgarbage")
	tampered := rewriteEntry(t, data, DexEntry, garbage)
	tampered = rewriteEntry(t, tampered, DigestEntry, []byte(payloadDigest(manifestXML, garbage)))
	if _, err := Open(tampered); !errors.Is(err, ErrBroken) {
		t.Errorf("err = %v, want ErrBroken", err)
	}
}

// rezipWithout rebuilds the archive leaving out one entry.
func rezipWithout(t *testing.T, data []byte, drop string) []byte {
	t.Helper()
	return rebuild(t, data, func(name string, b []byte) ([]byte, bool) {
		if name == drop {
			return nil, false
		}
		return b, true
	})
}

// rewriteEntry rebuilds the archive replacing one entry's contents.
func rewriteEntry(t *testing.T, data []byte, name string, contents []byte) []byte {
	t.Helper()
	return rebuild(t, data, func(n string, b []byte) ([]byte, bool) {
		if n == name {
			return contents, true
		}
		return b, true
	})
}

func rebuild(t *testing.T, data []byte, f func(string, []byte) ([]byte, bool)) []byte {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, zf := range zr.File {
		rc, err := zf.Open()
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if _, err := b.ReadFrom(rc); err != nil {
			t.Fatal(err)
		}
		rc.Close()
		out, keep := f(zf.Name, b.Bytes())
		if !keep {
			continue
		}
		w, err := zw.Create(zf.Name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(out); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
