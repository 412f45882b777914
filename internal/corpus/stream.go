package corpus

import (
	"strconv"
	"strings"
)

// Source is the read surface the repository and store servers consume:
// snapshot iteration in download-rank order plus per-package spec lookup.
// It is implemented by the fully materialized *Corpus and by the
// bounded-memory *Snapshot.
type Source interface {
	// Each calls fn for every snapshot entry in rank order, stopping at
	// the first error.
	Each(fn func(*Spec) error) error
	// EachPackage calls fn with every snapshot entry's package name in
	// rank order, synthesizing no spec.
	EachPackage(fn func(pkg string))
	// ByPackage returns the spec for pkg, or nil when the snapshot does
	// not contain it.
	ByPackage(pkg string) *Spec
	// Total reports the number of repository snapshot entries.
	Total() int
}

// Snapshot is a bounded-memory view of a generated corpus: specs are
// synthesized on demand from their download rank instead of being
// materialized up front, so a full paper-scale snapshot (6.5M repository
// entries, 146.5K analyzable APKs at Scale 1) is served in a few kilobytes
// of resident state — the dynamic-study behaviour prefix (≤1K entries) and
// a named-app rank table. Snapshot and Generate produce byte-identical
// specs for the same Config.
//
// Package names encode their rank (com.genapp%07d and friends), so
// ByPackage runs in O(1): parse the rank, regenerate the spec, verify the
// round trip. A Snapshot is safe for concurrent use: synthesis is pure.
type Snapshot struct {
	g         *generator
	namedRank map[string]int
}

// NewSnapshot builds the streaming view for the configuration.
func NewSnapshot(cfg Config) (*Snapshot, error) {
	g, err := newGenerator(cfg)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{g: g, namedRank: make(map[string]int, len(NamedApps))}
	// Named packages occupy the top ranks only while the dynamic prefix
	// covers them; smaller prefixes fall through to generated names.
	for i := 0; i < len(NamedApps) && i < g.topK; i++ {
		s.namedRank[NamedApps[i].Package] = i + 1
	}
	return s, nil
}

// Config returns the generating configuration.
func (s *Snapshot) Config() Config { return s.g.cfg }

// Counts returns the dataset funnel at the snapshot's scale.
func (s *Snapshot) Counts() Counts { return s.g.counts }

// Total reports the number of repository snapshot entries.
func (s *Snapshot) Total() int { return s.g.counts.Total }

// At synthesizes the spec at 1-based download rank r, or nil out of range.
func (s *Snapshot) At(r int) *Spec {
	if r < 1 || r > s.g.counts.Total {
		return nil
	}
	return s.g.specAt(r)
}

// Each streams every snapshot entry in rank order. Memory stays bounded:
// each spec is synthesized, handed to fn, and dropped.
func (s *Snapshot) Each(fn func(*Spec) error) error {
	for r := 1; r <= s.g.counts.Total; r++ {
		if err := fn(s.g.specAt(r)); err != nil {
			return err
		}
	}
	return nil
}

// EachPackage streams every entry's package name in rank order, each
// derived from its rank alone.
func (s *Snapshot) EachPackage(fn func(pkg string)) {
	for r := 1; r <= s.g.counts.Total; r++ {
		fn(s.g.packageAt(r))
	}
}

// ByPackage synthesizes the spec for pkg, or nil when the snapshot does
// not contain it.
func (s *Snapshot) ByPackage(pkg string) *Spec {
	r, ok := s.rankOf(pkg)
	if !ok {
		return nil
	}
	spec := s.At(r)
	if spec == nil || spec.Package != pkg {
		// The rank parsed but regenerates under a different name (e.g. a
		// genapp rank that actually belongs to the long tail): unknown.
		return nil
	}
	return spec
}

// rankOf recovers the download rank encoded in a package name.
func (s *Snapshot) rankOf(pkg string) (int, bool) {
	if r, ok := s.namedRank[pkg]; ok {
		return r, true
	}
	for _, prefix := range [...]string{"com.genapp", "com.longtail", "org.offplay"} {
		rest, ok := strings.CutPrefix(pkg, prefix)
		if !ok {
			continue
		}
		if len(rest) != 7 {
			return 0, false
		}
		r, err := strconv.Atoi(rest)
		if err != nil || r < 1 {
			return 0, false
		}
		return r, true
	}
	return 0, false
}
