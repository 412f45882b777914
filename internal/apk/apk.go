// Package apk reads and writes Android Package (APK) archives for the
// synthetic corpus. An APK here is, as on Android, a ZIP archive with a
// fixed internal layout:
//
//	AndroidManifest.xml   the manifest (see package manifest)
//	classes.sdex          the bytecode (see package dalvik)
//	META-INF/DIGEST       SHA-256 of the two payload entries (stand-in for
//	                      APK signing; AndroZoo indexes APKs by digest)
//	assets/...            optional asset files
//
// Pack and Open are the two halves; Open (Read, then Payload.Open)
// tolerates and reports the kinds of damage the paper's pipeline
// encountered ("242 APKs were discovered to be broken") via ErrBroken so
// that the pipeline can count rather than crash.
package apk

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"repro/internal/dalvik"
	"repro/internal/manifest"
)

// Well-known entry names.
const (
	ManifestEntry = "AndroidManifest.xml"
	DexEntry      = "classes.sdex"
	DigestEntry   = "META-INF/DIGEST"
)

// ErrBroken wraps every structural failure Open can hit, so callers can
// classify a file as a broken APK with errors.Is(err, ErrBroken).
var ErrBroken = errors.New("apk: broken archive")

// APK is a fully parsed package.
type APK struct {
	Manifest *manifest.Manifest
	Dex      *dalvik.File
	Assets   map[string][]byte
	Digest   string // hex SHA-256 of manifest+dex payloads
}

// Package returns the app's package name.
func (a *APK) Package() string { return a.Manifest.Package }

// Pack assembles an APK archive from a manifest, bytecode and optional
// assets, returning the ZIP image. Entries are written in a deterministic
// order so identical inputs produce identical bytes (and digests).
func Pack(m *manifest.Manifest, dex *dalvik.File, assets map[string][]byte) ([]byte, error) {
	manifestXML, err := manifest.Encode(m)
	if err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	dexBytes, err := dalvik.Encode(dex)
	if err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}

	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)

	write := func(name string, data []byte) error {
		// Store uncompressed: the corpus round-trips thousands of archives
		// and the sdex payload is already compact.
		w, err := zw.CreateHeader(&zip.FileHeader{Name: name, Method: zip.Store})
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	}

	if err := write(ManifestEntry, manifestXML); err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	if err := write(DexEntry, dexBytes); err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	if err := write(DigestEntry, []byte(payloadDigest(manifestXML, dexBytes))); err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}

	names := make([]string, 0, len(assets))
	for name := range assets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := write("assets/"+name, assets[name]); err != nil {
			return nil, fmt.Errorf("apk: %w", err)
		}
	}

	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	return buf.Bytes(), nil
}

// Payload is an APK archive read in one pass: the bytes of every entry
// and the digest of the manifest and dex payloads. Read makes it; its Open
// method decodes it. The pipeline keys its result cache on Digest and, on
// a miss, opens the same payload, so an archive is parsed once.
//
// A stored entry's bytes are a sub-slice of the archive image, so the
// image must not be modified while the payload, or the Assets of the APK
// its Open returns, are in use. Decoded manifests and bytecode copy what
// they keep.
type Payload struct {
	// Digest is the hex SHA-256 of the manifest and dex payloads, as
	// ComputeDigest returns it.
	Digest string

	manifest, dex, digest []byte // digest is nil when the entry is absent
	assets                map[string][]byte
	// err is the first read failure of an entry the digest does not
	// cover, reported by Open.
	err error
}

// MaxInflated bounds the uncompressed sizes the entries of one archive
// may declare, in total: 64 MiB, the largest image the AndroZoo client
// downloads. Read refuses an archive that declares more before it
// inflates anything, so a deflate bomb costs what its archive holds.
const MaxInflated = 64 << 20

// ZIP record signatures and fixed lengths (PKWARE APPNOTE.TXT, 4.3).
const (
	localSig        = 0x04034b50
	centralSig      = 0x02014b50
	endSig          = 0x06054b50
	zip64LocatorSig = 0x07064b50
	descriptorSig   = 0x08074b50
	localLen        = 30
	centralLen      = 46
	endLen          = 22
	zip64LocatorLen = 20
	zip64ExtraID    = 0x0001
	endSearch       = 65 * 1024 // how far back archive/zip looks for the end record
)

// maxDeflateRatio bounds what one byte of a deflate stream can inflate to:
// a match of at most 258 bytes takes at least two 1-bit codes (length and
// distance), so eight bits yield at most 1,032 bytes.
const maxDeflateRatio = 1032

// Read walks an APK archive image once. It finds the end-of-central-
// directory record, reads the central directory, checks each entry's
// local header, size and CRC-32 (and its data descriptor's CRC), and
// hashes the manifest and dex payloads once. Stored entries are returned
// in place, as capacity-clipped sub-slices of data; deflated ones are
// inflated into buffers of exactly their declared size.
//
// Read accepts what archive/zip reads, with the same checks, except forms
// the APKs it serves never take, which it refuses as broken: ZIP64
// records, encrypted entries, compression methods other than store and
// deflate, multi-disk archives, data before the first entry (a central
// directory that does not end where the end record begins), and entries
// declaring more than MaxInflated bytes in total.
//
// Every failure is an error wrapping ErrBroken. An unreadable archive, a
// refused form in any entry, and a missing manifest or dex entry fail
// Read, as does a manifest or dex entry that fails the read checks (size,
// CRC-32, data descriptor). Another entry (META-INF/DIGEST, an asset)
// that fails those checks is kept for Open, so such an archive still has
// the digest of its payloads.
func Read(data []byte) (*Payload, error) {
	dir, n, err := directory(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBroken, err)
	}
	p := &Payload{}
	for ; n > 0; n-- {
		h, size, _, _ := nextCentral(dir)
		dir = dir[size:]
		payload := string(h.name) == ManifestEntry || string(h.name) == DexEntry
		if p.err != nil && !payload {
			continue // Open fails anyway; only the digest still needs reading
		}
		b, err := h.read(data)
		if err != nil {
			err = fmt.Errorf("%w: entry %s: %w", ErrBroken, h.name, err)
			if payload {
				return nil, err
			}
			p.err = err
			continue
		}
		switch {
		case string(h.name) == ManifestEntry:
			p.manifest = b
		case string(h.name) == DexEntry:
			p.dex = b
		case string(h.name) == DigestEntry:
			p.digest = b
		case len(h.name) > len("assets/") && string(h.name[:len("assets/")]) == "assets/":
			if p.assets == nil {
				p.assets = make(map[string][]byte)
			}
			p.assets[string(h.name[len("assets/"):])] = b
		}
	}
	if p.manifest == nil {
		return nil, fmt.Errorf("%w: missing %s", ErrBroken, ManifestEntry)
	}
	if p.dex == nil {
		return nil, fmt.Errorf("%w: missing %s", ErrBroken, DexEntry)
	}
	p.Digest = payloadDigest(p.manifest, p.dex)
	return p, nil
}

// directory locates the central directory of data and checks every
// header in it. It returns the directory, from its first header to the
// end of the image, and the number of entries it lists.
func directory(data []byte) ([]byte, int, error) {
	// The end record is the last signature in the final endSearch bytes;
	// like archive/zip, give up if that record's comment overruns the image.
	e := -1
	for i := len(data) - endLen; i >= max(0, len(data)-endSearch); i-- {
		if le32(data[i:]) == endSig {
			if i+endLen+int(le16(data[i+20:])) <= len(data) {
				e = i
			}
			break
		}
	}
	if e < 0 {
		return nil, 0, zip.ErrFormat
	}
	end := data[e:]
	records, dirSize, offset := le16(end[10:]), le32(end[12:]), le32(end[16:])
	switch {
	case records == 0xffff || dirSize == 0xffffffff || offset == 0xffffffff ||
		e >= zip64LocatorLen && le32(data[e-zip64LocatorLen:]) == zip64LocatorSig:
		return nil, 0, errors.New("ZIP64 archive")
	case le16(end[4:]) != 0 || le16(end[6:]) != 0 || le16(end[8:]) != records:
		return nil, 0, errors.New("multi-disk archive")
	case int(offset)+int(dirSize) != e:
		return nil, 0, errors.New("data before the first entry")
	}

	// archive/zip reads headers until one does not parse, and only then
	// compares their number with the end record's.
	dir := data[offset:]
	n, total := 0, uint64(0)
	for rest := dir; ; n++ {
		h, size, ok, err := nextCentral(rest)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			break
		}
		switch {
		case h.zip64:
			return nil, 0, fmt.Errorf("entry %s: ZIP64 entry", h.name)
		case h.flags&0x1 != 0:
			return nil, 0, fmt.Errorf("entry %s: encrypted", h.name)
		case h.method != zip.Store && h.method != zip.Deflate:
			return nil, 0, fmt.Errorf("entry %s: compression method %d", h.name, h.method)
		}
		if total += uint64(h.usize); total > MaxInflated {
			return nil, 0, fmt.Errorf("entries declare more than %d bytes", MaxInflated)
		}
		rest = rest[size:]
	}
	if uint16(n) != records {
		return nil, 0, zip.ErrFormat
	}
	return dir, n, nil
}

// central is what the walk reads of one central-directory header.
type central struct {
	flags, method     uint16
	crc, csize, usize uint32
	offset            uint32 // of the entry's local header
	name              []byte
	zip64             bool // a ZIP64 extra field, or an all-ones size
}

// nextCentral parses the central-directory header at the start of b as
// archive/zip does. ok is false where archive/zip's directory ends: a
// partial header, another signature, or a ZIP64 size or offset without a
// ZIP64 field to resolve it. err is non-nil where archive/zip fails
// outright: b is empty, or no byte is left for the header's name, extra
// field and comment.
func nextCentral(b []byte) (h central, size int, ok bool, err error) {
	if len(b) == 0 {
		return h, 0, false, io.ErrUnexpectedEOF
	}
	if len(b) < centralLen || le32(b) != centralSig {
		return h, 0, false, nil
	}
	nameLen, extraLen, commentLen := int(le16(b[28:])), int(le16(b[30:])), int(le16(b[32:]))
	size = centralLen + nameLen + extraLen + commentLen
	if size > len(b) {
		if len(b) == centralLen {
			return h, 0, false, io.ErrUnexpectedEOF
		}
		return h, 0, false, nil
	}
	h = central{
		flags:  le16(b[8:]),
		method: le16(b[10:]),
		crc:    le32(b[16:]),
		csize:  le32(b[20:]),
		usize:  le32(b[24:]),
		offset: le32(b[42:]),
		name:   b[centralLen : centralLen+nameLen],
	}
	// archive/zip takes each all-ones value from the first ZIP64 field,
	// 8 bytes apiece in order, and accepts an all-ones uncompressed size
	// that no field resolves.
	needs := 0
	for _, v := range [...]uint32{h.usize, h.csize, h.offset} {
		if v == 0xffffffff {
			needs++
		}
	}
	usizeOnly := needs == 1 && h.usize == 0xffffffff
	for extra := b[centralLen+nameLen : centralLen+nameLen+extraLen]; len(extra) >= 4; {
		tag, n := le16(extra), int(le16(extra[2:]))
		extra = extra[4:]
		if len(extra) < n {
			break
		}
		if tag == zip64ExtraID && !h.zip64 {
			h.zip64 = true
			if n < 8*needs {
				return h, 0, false, nil
			}
			needs = 0
		}
		extra = extra[n:]
	}
	if needs > 0 && !usizeOnly {
		return h, 0, false, nil
	}
	h.zip64 = h.zip64 || needs > 0
	return h, size, true, nil
}

// read returns the entry's content, checked as archive/zip checks an
// entry read to its end: the local header's signature, the size, the
// CRC-32 (unless the header leaves it 0 and there is no data descriptor)
// and the data descriptor's CRC-32.
func (h *central) read(data []byte) ([]byte, error) {
	lo := int(h.offset)
	if lo+localLen > len(data) {
		return nil, io.ErrUnexpectedEOF
	}
	if le32(data[lo:]) != localSig {
		return nil, zip.ErrFormat
	}
	body := lo + localLen + int(le16(data[lo+26:])) + int(le16(data[lo+28:]))
	if n := len(h.name); n > 0 && h.name[n-1] == '/' {
		// A directory has no content, whatever its method or CRC.
		if h.usize != 0 {
			return nil, zip.ErrFormat
		}
		return []byte{}, nil
	}
	end := body + int(h.csize)
	raw := data[min(body, len(data)):min(end, len(data))]
	b := raw[:len(raw):len(raw)]
	if h.method == zip.Deflate {
		// A stream that cannot reach the declared size fails as
		// archive/zip fails it, short, before its buffer is allocated.
		if uint64(h.usize) > maxDeflateRatio*uint64(len(raw)) {
			return nil, io.ErrUnexpectedEOF
		}
		var err error
		if b, err = inflate(raw, h.usize); err != nil {
			return nil, err
		}
	}
	switch {
	case uint64(len(b)) > uint64(h.usize):
		return nil, zip.ErrFormat
	case uint64(len(b)) < uint64(h.usize):
		return nil, io.ErrUnexpectedEOF
	}
	sum := crc32.ChecksumIEEE(b)
	if h.flags&0x8 != 0 {
		// The data descriptor follows the data, with or without its
		// signature; archive/zip checks only its CRC-32.
		d := end
		if d+4 > len(data) {
			return nil, io.ErrUnexpectedEOF
		}
		if le32(data[d:]) == descriptorSig {
			d += 4
		}
		if d+12 > len(data) {
			return nil, io.ErrUnexpectedEOF
		}
		if le32(data[d:]) != h.crc || sum != h.crc {
			return nil, zip.ErrChecksum
		}
	} else if h.crc != 0 && sum != h.crc {
		return nil, zip.ErrChecksum
	}
	return b, nil
}

// inflater is a deflate decompressor and the reader it reads from. A
// decompressor holds a 32 KiB window and its Huffman tables, so inflate
// reuses them through inflaters, as archive/zip pools its decompressors.
type inflater struct {
	src  bytes.Reader
	fr   io.ReadCloser // a flate.Resetter
	tail [1]byte
}

var inflaters = sync.Pool{New: func() any {
	z := new(inflater)
	z.fr = flate.NewReader(&z.src)
	return z
}}

// inflate decompresses raw into a buffer of exactly size bytes. A stream
// that ends short of size, or runs on past it, is an error.
func inflate(raw []byte, size uint32) ([]byte, error) {
	z := inflaters.Get().(*inflater)
	defer func() {
		z.src.Reset(nil) // the pool keeps no image alive
		inflaters.Put(z)
	}()
	z.src.Reset(raw)
	z.fr.(flate.Resetter).Reset(&z.src, nil)
	b := make([]byte, size)
	if _, err := io.ReadFull(z.fr, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if n, err := z.fr.Read(z.tail[:]); n > 0 {
		return nil, zip.ErrFormat
	} else if err != io.EOF {
		return nil, err
	}
	return b, nil
}

func le16(b []byte) uint16 { return binary.LittleEndian.Uint16(b) }
func le32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// Open checks the payload against META-INF/DIGEST and decodes the manifest
// and bytecode. Any structural problem — an entry Read could not read, a
// missing or mismatched DIGEST, a corrupt manifest or bytecode — is
// reported wrapped in ErrBroken.
func (p *Payload) Open() (*APK, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.digest == nil {
		return nil, fmt.Errorf("%w: missing %s", ErrBroken, DigestEntry)
	}
	if p.Digest != string(p.digest) {
		return nil, fmt.Errorf("%w: digest mismatch", ErrBroken)
	}
	m, err := manifest.Decode(p.manifest)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBroken, err)
	}
	dex, err := dalvik.Decode(p.dex)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBroken, err)
	}
	return &APK{Manifest: m, Dex: dex, Assets: p.assets, Digest: p.Digest}, nil
}

// Open parses an APK archive image: Read, then the payload's Open. Any
// structural problem — unreadable ZIP, missing entries, corrupt bytecode
// or manifest, digest mismatch — is reported wrapped in ErrBroken.
func Open(data []byte) (*APK, error) {
	p, err := Read(data)
	if err != nil {
		return nil, err
	}
	return p.Open()
}

// ComputeDigest hashes the archive's manifest and dex payloads directly,
// yielding the same digest Pack records in META-INF/DIGEST — but derived
// from the actual content rather than trusted from the archive. It is the
// content address used to key analysis-result caches: it never lies about
// the payload, so a digest mismatch (a broken APK) still maps to a key of
// its own instead of poisoning the entry of the APK it claims to be.
// ComputeDigest does not validate the manifest or bytecode structure. It
// succeeds when only an entry outside the payload fails the read checks
// (size, CRC-32, data descriptor), and fails wherever Read does: on a
// form Read refuses in any entry, too.
func ComputeDigest(data []byte) (string, error) {
	p, err := Read(data)
	if err != nil {
		return "", err
	}
	return p.Digest, nil
}

func payloadDigest(manifestXML, dexBytes []byte) string {
	h := sha256.New()
	h.Write(manifestXML)
	h.Write(dexBytes)
	return hex.EncodeToString(h.Sum(nil))
}
