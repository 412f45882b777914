package apk

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/adler32"
	"hash/crc32"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
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

// TestHugeDeflatedSizeFailsSmall: a deflated asset whose headers declare
// 60 MiB over a 7-byte stream fails before a buffer of that size is
// allocated, since no such stream inflates that far; archive/zip fails it
// too.
func TestHugeDeflatedSizeFailsSmall(t *testing.T) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, e := range payloadEntries(t) {
		w, err := zw.Create(e.name)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(e.data)
	}
	var stream bytes.Buffer
	fw, err := flate.NewWriter(&stream, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write([]byte("hello"))
	fw.Close()
	w, err := zw.CreateRaw(&zip.FileHeader{
		Name:               "assets/big",
		Method:             zip.Deflate,
		CRC32:              crc32.ChecksumIEEE([]byte("hello")),
		CompressedSize64:   uint64(stream.Len()),
		UncompressedSize64: 60 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Write(stream.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Open(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBroken) {
		t.Fatalf("Open: err = %v, want ErrBroken", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("Open allocated %d bytes for a %d-byte archive, want < 1 MB", n, len(data))
	}
	if want, err := zipRead(data); err != nil || want.err == nil {
		t.Fatalf("archive/zip read = %+v, %v; want the asset to fail", want, err)
	}
	differential(t, data)
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

// FuzzOpen checks the walk against archive/zip (zipRead). For every input
// one of three outcomes holds: both readers fail; both read it, to the
// same digest, payload entries, assets, kept entry error and Open result;
// or only archive/zip reads it, and it takes one of the forms Read
// documents it refuses (refusal names which). An archive declaring more
// than MaxInflated bytes must fail Read whatever archive/zip makes of it,
// and is not inflated through archive/zip.
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
	f.Add(inflationBomb(f))
	// A truncated dex, checksummed again, under a DIGEST that matches it:
	// Open reaches dalvik.Decode's pools, as no mutation of a packed
	// archive does.
	entries = payloadEntries(f)
	half := entries[1].data[:len(entries[1].data)/2]
	binary.LittleEndian.PutUint32(half[6:], adler32.Checksum(half[10:]))
	d := []byte(payloadDigest(entries[0].data, half))
	entries[1] = rawEntry{DexEntry, half, uint64(len(half))}
	entries[2] = rawEntry{DigestEntry, d, uint64(len(d))}
	f.Add(craft(f, entries...))
	f.Fuzz(differential)
}

// differential is FuzzOpen's body: Read against zipRead on data.
func differential(t *testing.T, data []byte) {
	p, err := Read(data)
	if err != nil && !errors.Is(err, ErrBroken) {
		t.Fatalf("Read: error %v does not wrap ErrBroken", err)
	}
	zr, zerr := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if zerr == nil && declared(zr) > MaxInflated {
		if err == nil {
			t.Fatalf("Read accepted entries declaring %d bytes, over MaxInflated", declared(zr))
		}
		return
	}
	want, werr := zipRead(data)
	switch {
	case err != nil && werr != nil:
		return
	case err == nil && werr != nil:
		t.Fatalf("Read accepted an archive archive/zip refuses: %v", werr)
	case err != nil:
		if refusal(data, zr) == "" {
			t.Fatalf("Read refused an archive archive/zip reads, of no documented form: %v", err)
		}
		return
	}
	if p.Digest != want.Digest || !bytes.Equal(p.manifest, want.manifest) || !bytes.Equal(p.dex, want.dex) ||
		!reflect.DeepEqual(p.digest, want.digest) || !reflect.DeepEqual(p.assets, want.assets) ||
		(p.err == nil) != (want.err == nil) {
		t.Fatalf("Read and archive/zip differ:\n got %+v\nwant %+v", p, want)
	}
	a, aerr := p.Open()
	if aerr != nil && !errors.Is(aerr, ErrBroken) {
		t.Fatalf("Open: error %v does not wrap ErrBroken", aerr)
	}
	b, berr := want.Open()
	if (aerr == nil) != (berr == nil) || !reflect.DeepEqual(a, b) {
		t.Fatalf("Open differs: got %+v, %v; want %+v, %v", a, aerr, b, berr)
	}
	if d, err := ComputeDigest(data); err != nil || d != p.Digest {
		t.Fatalf("ComputeDigest = %q, %v; Read digest %s", d, err, p.Digest)
	}
}

// zipRead is the reader Read's walk replaced, kept as its differential
// oracle: it opens the archive with archive/zip and reads every entry to
// io.EOF, so that archive/zip checks its size, CRC-32 and any data
// descriptor.
func zipRead(data []byte) (*Payload, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, errors.Join(ErrBroken, err)
	}
	p := &Payload{}
	for _, f := range zr.File {
		payload := f.Name == ManifestEntry || f.Name == DexEntry
		if p.err != nil && !payload {
			continue
		}
		b, err := zipEntry(f, int64(len(data)))
		if err != nil {
			err = errors.Join(ErrBroken, err)
			if payload {
				return nil, err
			}
			p.err = err
			continue
		}
		switch {
		case f.Name == ManifestEntry:
			p.manifest = b
		case f.Name == DexEntry:
			p.dex = b
		case f.Name == DigestEntry:
			p.digest = b
		case len(f.Name) > len("assets/") && f.Name[:len("assets/")] == "assets/":
			if p.assets == nil {
				p.assets = make(map[string][]byte)
			}
			p.assets[f.Name[len("assets/"):]] = b
		}
	}
	if p.manifest == nil || p.dex == nil {
		return nil, ErrBroken
	}
	p.Digest = payloadDigest(p.manifest, p.dex)
	return p, nil
}

// zipEntry reads one entry to io.EOF. A stored entry whose declared size
// fits in the archive is read into a buffer of exactly that size; any
// other entry grows through io.ReadAll. The result is never nil.
func zipEntry(f *zip.File, archiveSize int64) ([]byte, error) {
	rc, err := f.Open()
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	if f.Method != zip.Store || f.UncompressedSize64 > uint64(archiveSize) {
		return io.ReadAll(rc)
	}
	b := make([]byte, f.UncompressedSize64)
	if _, err := io.ReadFull(rc, b); err != nil {
		return nil, err
	}
	var tail [1]byte
	if _, err := io.ReadFull(rc, tail[:]); err != io.EOF {
		if err == nil {
			err = errors.New("entry longer than its declared size")
		}
		return nil, err
	}
	return b, nil
}

// declared is the total uncompressed size zr's entries declare.
func declared(zr *zip.Reader) uint64 {
	var n uint64
	for _, f := range zr.File {
		n += f.UncompressedSize64
	}
	return n
}

// refusal names the documented form, if any, of an archive archive/zip
// reads as zr: ZIP64 records, an encrypted entry, a compression method
// other than store and deflate, a multi-disk archive, data before the
// first entry, or entries declaring more than MaxInflated bytes. It finds
// the end record the way archive/zip does, and reads entry headers only
// through zr, apart from the walk.
func refusal(data []byte, zr *zip.Reader) string {
	lo := max(0, len(data)-endSearch)
	e := bytes.LastIndex(data[lo:len(data)-endLen+4], []byte("PK\x05\x06"))
	if e < 0 {
		return ""
	}
	e += lo
	end := data[e:]
	u16 := func(i int) uint16 { return binary.LittleEndian.Uint16(end[i:]) }
	u32 := func(i int) uint32 { return binary.LittleEndian.Uint32(end[i:]) }
	switch {
	case u16(10) == 0xffff || u32(12) == 0xffffffff || u32(16) == 0xffffffff:
		return "ZIP64 end record"
	case e >= zip64LocatorLen && string(data[e-zip64LocatorLen:e-zip64LocatorLen+4]) == "PK\x06\x07":
		return "ZIP64 end locator"
	case u16(4) != 0 || u16(6) != 0 || u16(8) != u16(10):
		return "multi-disk archive"
	case int(u32(12))+int(u32(16)) != e:
		return "data before the first entry"
	}
	for _, f := range zr.File {
		switch {
		case f.Flags&0x1 != 0:
			return "encrypted entry"
		case f.Method != zip.Store && f.Method != zip.Deflate:
			return "compression method"
		case f.UncompressedSize64 == 0xffffffff || hasZIP64Field(f.Extra):
			return "ZIP64 entry"
		}
	}
	if declared(zr) > MaxInflated {
		return "over MaxInflated"
	}
	return ""
}

// hasZIP64Field reports whether archive/zip meets a ZIP64 field in an
// entry's extra data, walking it as archive/zip does.
func hasZIP64Field(extra []byte) bool {
	for len(extra) >= 4 {
		tag, n := binary.LittleEndian.Uint16(extra), int(binary.LittleEndian.Uint16(extra[2:]))
		extra = extra[4:]
		if len(extra) < n {
			return false
		}
		if tag == zip64ExtraID {
			return true
		}
		extra = extra[n:]
	}
	return false
}

var (
	bombOnce sync.Once
	bomb     []byte
)

// inflationBomb is a 66,022-byte APK whose one deflated asset inflates to
// 64 MiB of zeros: with its payload entries, more than MaxInflated.
func inflationBomb(t testing.TB) []byte {
	bombOnce.Do(func() {
		var buf bytes.Buffer
		zw := zip.NewWriter(&buf)
		for _, e := range payloadEntries(t) {
			w, err := zw.Create(e.name)
			if err != nil {
				t.Fatal(err)
			}
			w.Write(e.data)
		}
		w, err := zw.CreateHeader(&zip.FileHeader{Name: "assets/zeros", Method: zip.Deflate})
		if err != nil {
			t.Fatal(err)
		}
		zeros := make([]byte, 1<<20)
		for range 64 {
			w.Write(zeros)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		bomb = buf.Bytes()
	})
	return bomb
}

// asZIP64 rewrites a packed archive's end as zip.Writer writes a ZIP64
// archive: a ZIP64 end record and locator, then an end record whose
// count, size and offset are all ones.
func asZIP64(data []byte) []byte {
	e := len(data) - endLen
	records, size, offset := le16(data[e+10:]), le32(data[e+12:]), le32(data[e+16:])
	out := append([]byte(nil), data[:e]...)
	le := binary.LittleEndian
	out = le.AppendUint32(out, 0x06064b50)
	out = le.AppendUint64(out, 44)
	out = le.AppendUint16(out, 45)
	out = le.AppendUint16(out, 45)
	out = le.AppendUint32(out, 0)
	out = le.AppendUint32(out, 0)
	out = le.AppendUint64(out, uint64(records))
	out = le.AppendUint64(out, uint64(records))
	out = le.AppendUint64(out, uint64(size))
	out = le.AppendUint64(out, uint64(offset))
	out = le.AppendUint32(out, zip64LocatorSig)
	out = le.AppendUint32(out, 0)
	out = le.AppendUint64(out, uint64(e))
	out = le.AppendUint32(out, 1)
	out = le.AppendUint32(out, endSig)
	out = le.AppendUint16(out, 0)
	out = le.AppendUint16(out, 0)
	out = le.AppendUint16(out, 0xffff)
	out = le.AppendUint16(out, 0xffff)
	out = le.AppendUint32(out, 0xffffffff)
	out = le.AppendUint32(out, 0xffffffff)
	return le.AppendUint16(out, 0)
}

// centralHeaders returns the offset of each central-directory header of
// a packed archive (no archive comment).
func centralHeaders(data []byte) []int {
	e := len(data) - endLen
	var offs []int
	for off := int(le32(data[e+16:])); off < e; {
		offs = append(offs, off)
		off += centralLen + int(le16(data[off+28:])) + int(le16(data[off+30:])) + int(le16(data[off+32:]))
	}
	return offs
}

// TestRefusedForms: each form Read documents it refuses is broken for the
// walk, read by archive/zip, and named by refusal.
func TestRefusedForms(t *testing.T) {
	m, dex := sampleInputs(t)
	packed, err := Pack(m, dex, map[string][]byte{"config.json": []byte(`{"k":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	withAsset := func(edit func(data []byte, asset int)) []byte {
		data := append([]byte(nil), packed...)
		offs := centralHeaders(data)
		edit(data, offs[len(offs)-1])
		return data
	}
	forms := map[string][]byte{
		"ZIP64 end record":            asZIP64(packed),
		"data before the first entry": append([]byte("#!/bin/sh\nexit 0\n"), packed...),
		"multi-disk archive": withAsset(func(data []byte, _ int) {
			binary.LittleEndian.PutUint16(data[len(data)-endLen+4:], 1)
		}),
		"encrypted entry": withAsset(func(data []byte, h int) {
			data[h+8] |= 0x1
		}),
		"compression method": withAsset(func(data []byte, h int) {
			binary.LittleEndian.PutUint16(data[h+10:], 12) // bzip2
		}),
		"over MaxInflated": inflationBomb(t),
	}
	for want, data := range forms {
		if _, err := Read(data); !errors.Is(err, ErrBroken) {
			t.Errorf("%s: Read err = %v, want ErrBroken", want, err)
		}
		if _, err := zipRead(data); err != nil {
			t.Errorf("%s: archive/zip does not read it: %v", want, err)
			continue
		}
		zr, _ := zip.NewReader(bytes.NewReader(data), int64(len(data)))
		if got := refusal(data, zr); got != want {
			t.Errorf("refusal = %q, want %q", got, want)
		}
	}
	if zr, _ := zip.NewReader(bytes.NewReader(packed), int64(len(packed))); refusal(packed, zr) != "" {
		t.Errorf("refusal(packed) = %q, want none", refusal(packed, zr))
	}
}

// TestInflationBombFailsSmall: an archive whose deflated asset inflates
// past MaxInflated is broken before anything is inflated.
func TestInflationBombFailsSmall(t *testing.T) {
	data := inflationBomb(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Open(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBroken) {
		t.Fatalf("Open: err = %v, want ErrBroken", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<20 {
		t.Errorf("Open allocated %d bytes for a %d-byte archive, want < 4 MB", n, len(data))
	}
	wantBroken(t, data)
}

// TestReadAllocsFixed: reading an archive of stored entries allocates a
// fixed, small number of times, however large its entries are.
func TestReadAllocsFixed(t *testing.T) {
	m, dex := sampleInputs(t)
	var counts []float64
	for _, size := range []int{1, 1 << 20} {
		data, err := Pack(m, dex, map[string][]byte{"blob": bytes.Repeat([]byte{'x'}, size)})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, testing.AllocsPerRun(10, func() {
			if _, err := Read(data); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[0] > 8 {
		t.Errorf("Read allocations = %v for a 1-byte and a 1 MiB asset, want equal and at most 8", counts)
	}
}
