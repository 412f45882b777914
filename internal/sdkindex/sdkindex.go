// Package sdkindex is the stand-in for the Google Play SDK Index the paper
// uses to label Java packages with the SDK they belong to (§3.1.4).
//
// The catalog encodes the paper's published SDK landscape: every named SDK
// from Tables 4 and 5 with its package prefix and app-count marginals, plus
// synthetic filler SDKs so that the per-category SDK counts match Table 3
// exactly (125 SDKs using WebViews, 45 using CTs, 34 using both). The
// corpus generator consumes the same catalog to plant SDK code in apps, and
// the pipeline labels what it finds with Index.Lookup — so labeling is a
// real longest-prefix match over package names, not a lookup of planted
// answers.
package sdkindex

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Category classifies an SDK's primary function, following the paper's
// taxonomy (Table 3).
type Category string

// SDK categories.
const (
	Advertising    Category = "Advertising"
	Engagement     Category = "Engagement"
	DevTools       Category = "Development Tools"
	Payments       Category = "Payments"
	UserSupport    Category = "User Support"
	Social         Category = "Social"
	Utility        Category = "Utility"
	Authentication Category = "Authentication"
	Hybrid         Category = "Hybrid Functionality"
	Unknown        Category = "Unknown"
)

// Categories lists all categories in Table 3's order.
var Categories = []Category{
	Advertising, Payments, DevTools, Engagement, Social,
	Authentication, Unknown, Hybrid, Utility, UserSupport,
}

// SDK is one catalog entry.
type SDK struct {
	Name     Name
	Package  string // Java package prefix, e.g. "com.applovin"
	Category Category
	// WebViewApps / CTApps are the paper-reported (or synthesised, for
	// filler SDKs) number of apps embedding this SDK's WebView / CT usage,
	// at full corpus scale. Zero means the SDK does not use that surface.
	WebViewApps int
	CTApps      int
	// Obfuscated marks packages that could not be labeled because their
	// names are obfuscated (4 of the 14 unlabeled packages).
	Obfuscated bool
	// Excluded marks catalog entries deliberately left out of SDK
	// statistics (Google's com.google.android, §3.1.4).
	Excluded bool
}

// Name is an SDK's display name.
type Name = string

// UsesWebView reports whether the SDK drives WebViews.
func (s *SDK) UsesWebView() bool { return s.WebViewApps > 0 }

// UsesCT reports whether the SDK drives Custom Tabs.
func (s *SDK) UsesCT() bool { return s.CTApps > 0 }

// UsesBoth reports whether the SDK drives both surfaces.
func (s *SDK) UsesBoth() bool { return s.UsesWebView() && s.UsesCT() }

// CategoryTarget holds the paper-reported union of apps using any SDK of a
// category (Tables 4 and 5 "Total #apps" columns). Marginal per-SDK counts
// exceed these unions because apps embed several SDKs of the same kind.
type CategoryTarget struct {
	Category    Category
	WebViewApps int // union of apps using the category's WebView SDKs
	CTApps      int // union of apps using the category's CT SDKs
}

// Targets reproduces the per-category union totals of Tables 4 and 5.
var Targets = []CategoryTarget{
	{Advertising, 39163, 1953},
	{Engagement, 21040, 0},
	{DevTools, 7020, 172},
	{Payments, 3212, 208},
	{UserSupport, 1692, 0},
	{Social, 1686, 23807},
	{Utility, 362, 71},
	{Authentication, 342, 7802},
	{Hybrid, 256, 87},
	{Unknown, 900, 120}, // not reported per-category; modest filler values
}

// TargetFor returns the union target for a category.
func TargetFor(c Category) CategoryTarget {
	for _, t := range Targets {
		if t.Category == c {
			return t
		}
	}
	return CategoryTarget{Category: c}
}

// Index is a package-prefix lookup table over the catalog.
type Index struct {
	sdks       []SDK
	prefixes   []string // sorted for deterministic longest-prefix search
	byPrefix   map[string]int
	byCategory map[Category][]SDK

	fpOnce sync.Once
	fp     string
}

// NewIndex builds an index over the given catalog entries.
func NewIndex(sdks []SDK) *Index {
	idx := &Index{sdks: sdks, byPrefix: make(map[string]int, len(sdks)), byCategory: make(map[Category][]SDK)}
	for i := range sdks {
		idx.byPrefix[sdks[i].Package] = i
		idx.prefixes = append(idx.prefixes, sdks[i].Package)
		c := sdks[i].Category
		idx.byCategory[c] = append(idx.byCategory[c], sdks[i])
	}
	sort.Strings(idx.prefixes)
	for c, l := range idx.byCategory {
		idx.byCategory[c] = l[:len(l):len(l)] // an append copies
	}
	return idx
}

var (
	defaultOnce sync.Once
	defaultIdx  *Index
)

// Default returns an index over the full built-in catalog. The index is
// immutable and shared: building it regenerates the whole catalog, which
// is far too expensive to repeat on a per-APK path.
func Default() *Index {
	defaultOnce.Do(func() { defaultIdx = NewIndex(Catalog()) })
	return defaultIdx
}

// All returns the catalog entries (excluding none).
func (x *Index) All() []SDK { return x.sdks }

// Lookup labels a Java package name with its SDK by longest-prefix match:
// "com.applovin.adview" matches the "com.applovin" entry. The boolean is
// false when no catalog prefix applies (an unlabelled package).
func (x *Index) Lookup(pkg string) (*SDK, bool) {
	for pkg != "" {
		if i, ok := x.byPrefix[pkg]; ok {
			return &x.sdks[i], true
		}
		dot := strings.LastIndexByte(pkg, '.')
		if dot < 0 {
			return nil, false
		}
		pkg = pkg[:dot]
	}
	return nil, false
}

// Fingerprint returns a short stable hash over everything in the catalog
// that labeling depends on (prefix, name, category, exclusion and
// obfuscation flags). Content-addressed result caches mix it into their
// keys, so swapping or editing the SDK index invalidates every cached
// attribution instead of silently serving labels from the old catalog.
func (x *Index) Fingerprint() string {
	x.fpOnce.Do(func() {
		h := sha256.New()
		for i := range x.sdks {
			s := &x.sdks[i]
			fmt.Fprintf(h, "%s\x00%s\x00%s\x00%t\x00%t\n",
				s.Package, s.Name, s.Category, s.Excluded, s.Obfuscated)
		}
		x.fp = hex.EncodeToString(h.Sum(nil))[:16]
	})
	return x.fp
}

// ByCategory returns the catalog entries of one category, in catalog
// order. NewIndex builds the lists once; every call returns the same
// slice, which callers must treat as read-only.
func (x *Index) ByCategory(c Category) []SDK { return x.byCategory[c] }

// Counts tallies the Table 3 matrix over the catalog: per category, how
// many SDKs use WebViews, CTs and both. Excluded entries are skipped.
func (x *Index) Counts() map[Category][3]int {
	out := make(map[Category][3]int)
	for i := range x.sdks {
		s := &x.sdks[i]
		if s.Excluded {
			continue
		}
		v := out[s.Category]
		if s.UsesWebView() {
			v[0]++
		}
		if s.UsesCT() {
			v[1]++
		}
		if s.UsesBoth() {
			v[2]++
		}
		out[s.Category] = v
	}
	return out
}

// Totals sums Counts over all categories: (usingWebView, usingCT, usingBoth).
func (x *Index) Totals() (wv, ct, both int) {
	for _, v := range x.Counts() {
		wv += v[0]
		ct += v[1]
		both += v[2]
	}
	return wv, ct, both
}
