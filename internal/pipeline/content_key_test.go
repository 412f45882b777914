package pipeline

import (
	"archive/zip"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/apk"
	"repro/internal/corpus"
)

// contentKeysDigest pins the SHA-256 of every cache key, one
// "package key" line per filtered APK of the scale-2000, seed-1 corpus
// under the default configuration. A change to it makes a warm
// -cachedir miss everything, as analysisVersion 2 (Decode rejecting
// repeated definitions) deliberately did.
const contentKeysDigest = "4de9130bb7ffb20505a3d4c2fe5e2bef7f2cc52e6bbca3a98e59a0bbf9988785"

// keyOf is the cache key the per-APK worker derives for img.
func keyOf(p *Pipeline, img []byte) string {
	pl, _ := apk.Read(img) // a nil payload takes the raw- key
	return p.contentKey(img, pl)
}

func TestContentKeysPinned(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	p := New(nil, nil, Config{})
	h := sha256.New()
	for _, s := range c.Filtered() {
		img, err := corpus.BuildAPK(s)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %s\n", s.Package, keyOf(p, img))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != contentKeysDigest {
		t.Errorf("cache keys over %d APKs have digest %s, pinned %s", len(c.Filtered()), got, contentKeysDigest)
	}
}

// sampleImage is the first filtered, unbroken APK of a small corpus.
func sampleImage(t *testing.T) []byte {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Filtered() {
		if !s.Broken {
			img, err := corpus.BuildAPK(s)
			if err != nil {
				t.Fatal(err)
			}
			return img
		}
	}
	t.Fatal("no unbroken APK")
	return nil
}

// rezip rebuilds an archive through edit, which may rewrite or (returning
// nil) drop an entry.
func rezip(t *testing.T, img []byte, edit func(name string, b []byte) []byte) []byte {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if b = edit(f.Name, b); b == nil {
			continue
		}
		w, err := zw.CreateHeader(&zip.FileHeader{Name: f.Name, Method: zip.Store})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestContentKeyRawFallback(t *testing.T) {
	p := New(nil, nil, Config{})
	img := sampleImage(t)
	noDex := rezip(t, img, func(name string, b []byte) []byte {
		if name == apk.DexEntry {
			return nil
		}
		return b
	})
	for name, data := range map[string][]byte{"non-ZIP input": []byte("not a zip at all"), "missing dex": noDex} {
		sum := sha256.Sum256(data)
		if got, want := keyOf(p, data), "raw-"+hex.EncodeToString(sum[:])+"@"+p.key; got != want {
			t.Errorf("%s: key %s, want %s", name, got, want)
		}
		an, err := AnalyzeAndExtract(nil, nil, nil, data)
		if err != nil || !an.Broken {
			t.Errorf("%s: analysis %+v, %v; want Broken", name, an, err)
		}
	}
}

// TestCorruptDigestEntryKeysByPayload: a META-INF/DIGEST entry that fails
// its CRC check leaves the payload digest, so the key is the payload's and
// only Open reports the archive broken.
func TestCorruptDigestEntryKeysByPayload(t *testing.T) {
	p := New(nil, nil, Config{})
	img := sampleImage(t)
	digest, err := apk.ComputeDigest(img)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(img, []byte(digest))
	if i < 0 {
		t.Fatal("stored DIGEST entry not found")
	}
	corrupt := append([]byte(nil), img...)
	corrupt[i] ^= 0x01
	if got, want := keyOf(p, corrupt), digest+"@"+p.key; got != want {
		t.Errorf("key %s, want %s", got, want)
	}
	pl, err := apk.Read(corrupt)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := pl.Open(); !errors.Is(err, apk.ErrBroken) {
		t.Errorf("Open: err = %v, want ErrBroken", err)
	}
	an, err := AnalyzeAndExtract(nil, nil, nil, corrupt)
	if err != nil || !an.Broken {
		t.Errorf("analysis %+v, %v; want Broken", an, err)
	}
}
