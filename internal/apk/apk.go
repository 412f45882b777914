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
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"

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

// Read parses an APK archive image in one pass: it reads every entry
// once and hashes the manifest and dex payloads once. An unreadable
// archive or a missing or unreadable manifest or dex entry is an error
// wrapping ErrBroken; a failure to read any other entry (META-INF/DIGEST,
// an asset) is kept for Open, so the digest of an archive whose payloads
// read is always known.
func Read(data []byte) (*Payload, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBroken, err)
	}
	p := &Payload{}
	for _, f := range zr.File {
		payload := f.Name == ManifestEntry || f.Name == DexEntry
		if p.err != nil && !payload {
			continue // Open fails anyway; only the digest still needs reading
		}
		b, err := readEntry(f, int64(len(data)))
		if err != nil {
			err = fmt.Errorf("%w: entry %s: %v", ErrBroken, f.Name, err)
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
	if p.manifest == nil {
		return nil, fmt.Errorf("%w: missing %s", ErrBroken, ManifestEntry)
	}
	if p.dex == nil {
		return nil, fmt.Errorf("%w: missing %s", ErrBroken, DexEntry)
	}
	p.Digest = payloadDigest(p.manifest, p.dex)
	return p, nil
}

// readEntry reads one entry to io.EOF, so that archive/zip checks its
// size, CRC-32 and any data descriptor. A stored entry whose declared size
// fits in the archive is read into a buffer of exactly that size; any
// other entry grows through io.ReadAll, so a false declared size costs at
// most what the archive holds. The result is never nil.
func readEntry(f *zip.File, archiveSize int64) ([]byte, error) {
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
// ComputeDigest does not validate the manifest or bytecode structure, and
// it succeeds when only an entry outside the payload fails to read.
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
