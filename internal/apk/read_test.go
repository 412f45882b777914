package apk

import (
	"archive/zip"
	"bytes"
	"errors"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dalvik"
	"repro/internal/manifest"
)

// rawEntry is one stored entry of a crafted archive: its data and the
// uncompressed size its headers declare.
type rawEntry struct {
	name     string
	data     []byte
	declared uint64
}

// craft writes a ZIP archive of stored entries whose headers declare the
// given sizes (ZIP64 records when a size needs them), so the data can be
// shorter or longer than declared.
func craft(t testing.TB, entries ...rawEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, e := range entries {
		w, err := zw.CreateRaw(&zip.FileHeader{
			Name:               e.name,
			Method:             zip.Store,
			CRC32:              crc32.ChecksumIEEE(e.data),
			CompressedSize64:   uint64(len(e.data)),
			UncompressedSize64: e.declared,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(e.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// payloadEntries are the three entries Pack writes for the sample inputs,
// each declaring its true size.
func payloadEntries(t testing.TB) []rawEntry {
	t.Helper()
	m := &manifest.Manifest{Package: "com.example.pack", Components: []manifest.Component{{
		Kind: manifest.KindActivity, Name: "com.example.pack.MainActivity",
	}}}
	manifestXML, err := manifest.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	dexBytes, err := dalvik.Encode(dalvik.NewBuilder().
		Class("com.example.pack.MainActivity", "android.app.Activity", dalvik.AccPublic).
		MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	digest := []byte(payloadDigest(manifestXML, dexBytes))
	return []rawEntry{
		{ManifestEntry, manifestXML, uint64(len(manifestXML))},
		{DexEntry, dexBytes, uint64(len(dexBytes))},
		{DigestEntry, digest, uint64(len(digest))},
	}
}

// wantBroken asserts that both Open and ComputeDigest reject data with
// ErrBroken.
func wantBroken(t *testing.T, data []byte) {
	t.Helper()
	if _, err := Open(data); !errors.Is(err, ErrBroken) {
		t.Errorf("Open: err = %v, want ErrBroken", err)
	}
	if d, err := ComputeDigest(data); !errors.Is(err, ErrBroken) {
		t.Errorf("ComputeDigest = %q, %v; want ErrBroken", d, err)
	}
}

func TestCraftedArchiveOpens(t *testing.T) {
	entries := payloadEntries(t)
	a, err := Open(craft(t, entries...))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if a.Digest != string(entries[2].data) {
		t.Errorf("Digest = %s, want %s", a.Digest, entries[2].data)
	}
}

// TestHugeDeclaredSizeFailsSmall: a stored entry whose central directory
// declares 1<<40 bytes is broken, and reading it allocates in proportion
// to the archive, not to the claim.
func TestHugeDeclaredSizeFailsSmall(t *testing.T) {
	entries := payloadEntries(t)
	entries[1].declared = 1 << 40
	data := craft(t, entries...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Open(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBroken) {
		t.Fatalf("Open: err = %v, want ErrBroken", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("Open allocated %d bytes for a %d-byte archive, want < 1 MB", n, len(data))
	}
	wantBroken(t, data)
}

// TestDeclaredSizeMismatch: entry data shorter or longer than its
// declared size is broken, for the payload entries (ComputeDigest fails
// too) as for META-INF/DIGEST (only Open fails).
func TestDeclaredSizeMismatch(t *testing.T) {
	for _, delta := range []int{-5, +5} {
		for i := range []string{ManifestEntry, DexEntry} {
			entries := payloadEntries(t)
			entries[i].declared = uint64(int(entries[i].declared) + delta)
			wantBroken(t, craft(t, entries...))
		}
		entries := payloadEntries(t)
		entries[2].declared = uint64(int(entries[2].declared) + delta)
		data := craft(t, entries...)
		if _, err := Open(data); !errors.Is(err, ErrBroken) {
			t.Errorf("DIGEST declared %+d bytes: Open err = %v, want ErrBroken", delta, err)
		}
		if d, err := ComputeDigest(data); err != nil || d != string(payloadEntries(t)[2].data) {
			t.Errorf("DIGEST declared %+d bytes: ComputeDigest = %q, %v; want the payload digest", delta, d, err)
		}
	}
}

// TestFlippedDexByteFailsCRC: a stored dex with one byte flipped fails
// archive/zip's CRC-32 check, so not even the digest is computed.
func TestFlippedDexByteFailsCRC(t *testing.T) {
	m, dex := sampleInputs(t)
	data, err := Pack(m, dex, nil)
	if err != nil {
		t.Fatal(err)
	}
	dexBytes, err := dalvik.Encode(dex)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, dexBytes)
	if i < 0 {
		t.Fatal("stored dex not found in the archive")
	}
	data[i+len(dexBytes)/2] ^= 0x40
	wantBroken(t, data)
	if _, err := Open(data); err == nil || !strings.Contains(err.Error(), zip.ErrChecksum.Error()) {
		t.Errorf("Open: err = %v, want %q", err, zip.ErrChecksum)
	}
}

// TestReadThenOpenMatchesOpen checks the two halves against the whole:
// Read's digest is ComputeDigest's, and its Open returns what Open does.
func TestReadThenOpenMatchesOpen(t *testing.T) {
	m, dex := sampleInputs(t)
	data, err := Pack(m, dex, map[string][]byte{"a.txt": []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ComputeDigest(data)
	if err != nil || p.Digest != d {
		t.Fatalf("Read digest %s, ComputeDigest %s, %v", p.Digest, d, err)
	}
	a, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.Package() != b.Package() || string(a.Assets["a.txt"]) != "x" ||
		len(a.Dex.Classes) != len(b.Dex.Classes) {
		t.Errorf("Read+Open = %+v, Open = %+v", a, b)
	}
}

func FuzzOpen(f *testing.F) {
	m, dex := sampleInputs(f)
	packed, err := Pack(m, dex, map[string][]byte{"config.json": []byte(`{"k":1}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(packed)
	f.Add([]byte("PK\x03\x04broken-apk:com.example.broken"))
	f.Add(packed[:len(packed)/2])
	entries := payloadEntries(f)
	entries[1].declared += 3
	f.Add(craft(f, entries...))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Open(data)
		if err != nil {
			if !errors.Is(err, ErrBroken) {
				t.Fatalf("Open: error %v does not wrap ErrBroken", err)
			}
			return
		}
		d, err := ComputeDigest(data)
		if err != nil {
			t.Fatalf("Open succeeded but ComputeDigest failed: %v", err)
		}
		if d != a.Digest {
			t.Fatalf("ComputeDigest = %s, Open digest = %s", d, a.Digest)
		}
	})
}
