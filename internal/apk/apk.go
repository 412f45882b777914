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
// Pack and Open are the two halves; Open tolerates and reports the kinds of
// damage the paper's pipeline encountered ("242 APKs were discovered to be
// broken") via ErrBroken so that the pipeline can count rather than crash.
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

// Open parses an APK archive image. Any structural problem — unreadable
// ZIP, missing entries, corrupt bytecode or manifest, digest mismatch — is
// reported wrapped in ErrBroken.
func Open(data []byte) (*APK, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBroken, err)
	}

	entries := make(map[string][]byte)
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			return nil, fmt.Errorf("%w: entry %s: %v", ErrBroken, f.Name, err)
		}
		b, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("%w: entry %s: %v", ErrBroken, f.Name, err)
		}
		entries[f.Name] = b
	}

	manifestXML, ok := entries[ManifestEntry]
	if !ok {
		return nil, fmt.Errorf("%w: missing %s", ErrBroken, ManifestEntry)
	}
	dexBytes, ok := entries[DexEntry]
	if !ok {
		return nil, fmt.Errorf("%w: missing %s", ErrBroken, DexEntry)
	}
	wantDigest, ok := entries[DigestEntry]
	if !ok {
		return nil, fmt.Errorf("%w: missing %s", ErrBroken, DigestEntry)
	}
	digest := payloadDigest(manifestXML, dexBytes)
	if digest != string(wantDigest) {
		return nil, fmt.Errorf("%w: digest mismatch", ErrBroken)
	}

	m, err := manifest.Decode(manifestXML)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBroken, err)
	}
	dex, err := dalvik.Decode(dexBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBroken, err)
	}

	a := &APK{Manifest: m, Dex: dex, Digest: digest}
	for name, b := range entries {
		if len(name) > len("assets/") && name[:len("assets/")] == "assets/" {
			if a.Assets == nil {
				a.Assets = make(map[string][]byte)
			}
			a.Assets[name[len("assets/"):]] = b
		}
	}
	return a, nil
}

// ComputeDigest hashes the archive's manifest and dex payloads directly,
// yielding the same digest Pack records in META-INF/DIGEST — but derived
// from the actual content rather than trusted from the archive. It is the
// content address used to key analysis-result caches: it never lies about
// the payload, so a digest mismatch (a broken APK) still maps to a key of
// its own instead of poisoning the entry of the APK it claims to be.
// ComputeDigest does not validate the manifest or bytecode structure.
func ComputeDigest(data []byte) (string, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBroken, err)
	}
	var manifestXML, dexBytes []byte
	read := func(f *zip.File) ([]byte, error) {
		rc, err := f.Open()
		if err != nil {
			return nil, fmt.Errorf("%w: entry %s: %v", ErrBroken, f.Name, err)
		}
		defer rc.Close()
		b, err := io.ReadAll(rc)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %s: %v", ErrBroken, f.Name, err)
		}
		return b, nil
	}
	for _, f := range zr.File {
		switch f.Name {
		case ManifestEntry:
			if manifestXML, err = read(f); err != nil {
				return "", err
			}
		case DexEntry:
			if dexBytes, err = read(f); err != nil {
				return "", err
			}
		}
	}
	if manifestXML == nil {
		return "", fmt.Errorf("%w: missing %s", ErrBroken, ManifestEntry)
	}
	if dexBytes == nil {
		return "", fmt.Errorf("%w: missing %s", ErrBroken, DexEntry)
	}
	return payloadDigest(manifestXML, dexBytes), nil
}

func payloadDigest(manifestXML, dexBytes []byte) string {
	h := sha256.New()
	h.Write(manifestXML)
	h.Write(dexBytes)
	return hex.EncodeToString(h.Sum(nil))
}
