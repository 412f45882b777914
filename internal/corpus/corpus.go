package corpus

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/sdkindex"
)

// Config controls corpus generation.
type Config struct {
	// Seed drives every random choice; identical configs generate
	// identical corpora.
	Seed int64
	// Scale divides the paper's population sizes: Scale 1 reproduces the
	// full 6.5M-app AndroZoo snapshot (memory-hungry), Scale 100 a 65K-app
	// corpus. Must be >= 1.
	Scale int
	// ObfuscationRate is the fraction of analyzable apps whose WebView
	// calls are routed through reflection, hiding them from static
	// analysis — the §3.1.5 limitation ("our method may fall short in
	// detecting obfuscated method calls"). Zero (the default) matches the
	// paper's observation that Play Store obfuscation is uncommon.
	ObfuscationRate float64
}

// Counts is the dataset funnel (Table 2) at a given scale.
type Counts struct {
	Total    int // Play Store apps in the AndroZoo snapshot
	OnPlay   int // apps found on the Play Store
	Popular  int // 100K+ downloads
	Filtered int // 100K+ downloads and updated after the cutoff
	Broken   int // APKs that fail to parse
	Analyzed int // Filtered - Broken
}

// ScaledCounts returns the funnel at the given scale.
func ScaledCounts(scale int) Counts {
	div := func(n int) int {
		v := (n + scale/2) / scale
		if v < 1 {
			v = 1
		}
		return v
	}
	c := Counts{
		Total:    div(PaperAndrozooApps),
		OnPlay:   div(PaperOnPlayApps),
		Popular:  div(PaperPopularApps),
		Filtered: div(PaperFilteredApps),
		Broken:   (PaperBrokenAPKs + scale/2) / scale,
	}
	if c.Filtered > c.Popular {
		c.Filtered = c.Popular
	}
	// Broken APKs are planted only beyond the dynamic top-1K prefix, so
	// there can be no more of them than filtered apps past it.
	c.Broken = min(c.Broken, max(c.Filtered-dynamicPrefix, 0))
	c.Analyzed = c.Filtered - c.Broken
	return c
}

// dynamicPrefix is the size of the top-apps prefix the dynamic study
// probes (§3.2): always updated, never broken.
const dynamicPrefix = 1000

// UpdateCutoff is the maintenance filter: apps must have been updated after
// this date (§3.1.1).
var UpdateCutoff = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)

// MinDownloads is the popularity filter.
const MinDownloads = 100_000

// Corpus is a generated app population, ordered with on-Play apps first by
// descending downloads, then off-Play apps.
type Corpus struct {
	Config Config
	Counts Counts
	Apps   []*Spec

	idxOnce sync.Once
	byPkg   map[string]*Spec
}

// Generate builds the corpus for the configuration, materializing every
// spec. Generation is deterministic in cfg. For paper-scale corpora —
// millions of snapshot entries — prefer NewSnapshot, which synthesizes the
// identical specs on demand with bounded memory.
func Generate(cfg Config) (*Corpus, error) {
	g, err := newGenerator(cfg)
	if err != nil {
		return nil, err
	}
	c := &Corpus{Config: cfg, Counts: g.counts}
	c.Apps = make([]*Spec, 0, g.counts.Total)
	for r := 1; r <= g.counts.Total; r++ {
		c.Apps = append(c.Apps, g.specAt(r))
	}
	return c, nil
}

// generator synthesizes specs rank by rank. Every piece of the original
// generation loop's running state (the Bresenham update filter, the
// broken-APK stride, the obfuscation draw) has a closed form in the rank,
// so any spec can be produced on demand without materializing its
// predecessors — the foundation of the bounded-memory Snapshot view.
type generator struct {
	cfg    Config
	counts Counts
	idx    *sdkindex.Index
	// topK is the dynamic-study prefix: the top-1K apps (or the whole
	// filtered set when the scale shrinks it below 1000). Everything in
	// the prefix is kept updated so it survives the maintenance filter.
	topK      int
	behaviors []Dynamic
	// beyondPopular/beyondFiltered drive the exact-count update filter
	// over the popular apps beyond the prefix.
	beyondPopular  int
	beyondFiltered int
	brokenStride   int
}

func newGenerator(cfg Config) (*generator, error) {
	if cfg.Scale < 1 {
		return nil, fmt.Errorf("corpus: scale %d < 1", cfg.Scale)
	}
	g := &generator{cfg: cfg, counts: ScaledCounts(cfg.Scale), idx: sdkindex.Default()}
	g.topK = min(g.counts.Filtered, dynamicPrefix)
	g.behaviors = topBehaviors(cfg.Seed, g.topK)
	g.beyondPopular = g.counts.Popular - g.topK
	g.beyondFiltered = g.counts.Filtered - g.topK
	if g.beyondFiltered < 0 {
		g.beyondFiltered = 0
	}
	if g.counts.Broken > 0 {
		g.brokenStride = (g.counts.Filtered - g.topK) / g.counts.Broken
		if g.brokenStride < 1 {
			g.brokenStride = 1
		}
	}
	return g, nil
}

// filteredBeyond counts how many of the first k popular apps beyond the
// dynamic prefix pass the update filter (exact Bresenham stride, so the
// funnel counts match ScaledCounts precisely).
func (g *generator) filteredBeyond(k int) int {
	if g.beyondPopular <= 0 {
		return 0
	}
	return k * g.beyondFiltered / g.beyondPopular
}

// eligibleBeyondTopK is the number of filter-passing apps beyond the
// dynamic prefix among ranks 1..r — the closed form of the generation
// loop's filteredSeen-topK counter.
func (g *generator) eligibleBeyondTopK(r int) int {
	if r <= g.topK {
		return 0
	}
	return g.filteredBeyond(r - g.topK)
}

// specAt synthesizes the spec at 1-based download rank r (off-Play apps
// occupy the ranks past counts.OnPlay). specAt(r) is byte-identical to
// Generate(cfg).Apps[r-1].
func (g *generator) specAt(r int) *Spec {
	// Off-Play apps: present in AndroZoo, absent from the Play Store.
	if r > g.counts.OnPlay {
		return &Spec{
			Package: fmt.Sprintf("org.offplay%07d", r),
			Title:   fmt.Sprintf("Off Play %d", r),
		}
	}
	spec := &Spec{OnPlayStore: true}
	switch {
	case r <= len(NamedApps) && r <= g.topK:
		n := NamedApps[r-1]
		spec.Package, spec.Title = n.Package, n.Title
		spec.PlayCategory = n.Category
		spec.Downloads = n.Downloads
		spec.LastUpdated = UpdateCutoff.AddDate(1, 6, 0)
		spec.Dynamic = n.Dynamic
		spec.OwnMethods = append(spec.OwnMethods, n.OwnMethods...)
		spec.OwnCT = n.OwnCT
	case r <= g.counts.Popular:
		spec.Package = fmt.Sprintf("com.genapp%07d", r)
		spec.Title = fmt.Sprintf("Gen App %d", r)
		spec.Downloads = scaledDownloads(r, g.topK, g.cfg.Scale)
		if r <= g.topK {
			spec.Dynamic = g.behaviors[r-1]
			spec.LastUpdated = UpdateCutoff.AddDate(1, 0, r%300)
		} else {
			// Exact-count update filter over the remaining popular apps.
			k := r - g.topK
			if g.filteredBeyond(k) > g.filteredBeyond(k-1) {
				spec.LastUpdated = UpdateCutoff.AddDate(0, 6, r%500)
			} else {
				spec.LastUpdated = UpdateCutoff.AddDate(-2, 0, -(r % 300))
			}
		}
	default:
		spec.Package = fmt.Sprintf("com.longtail%07d", r)
		spec.Title = fmt.Sprintf("Long Tail %d", r)
		spec.Downloads = longTailDownloads(r, g.counts.OnPlay)
		spec.LastUpdated = UpdateCutoff.AddDate(-1, 0, -(r % 700))
	}

	if spec.Eligible(MinDownloads, UpdateCutoff) {
		// Named top apps stay clear (the dynamic study probes their
		// behaviour); any other app may ship obfuscated.
		if g.cfg.ObfuscationRate > 0 && r > len(NamedApps) &&
			appRNG(g.cfg.Seed, spec.Package, "obfuscate").Float64() < g.cfg.ObfuscationRate {
			spec.Obfuscated = true
		}
		// Mark broken APKs at a fixed stride, skipping the dynamic
		// top apps so the semi-manual study always installs cleanly.
		if e := g.eligibleBeyondTopK(r); g.brokenStride > 0 && e > 0 &&
			e%g.brokenStride == 0 && e/g.brokenStride <= g.counts.Broken {
			spec.Broken = true
		}
		assignStatic(spec, g.idx, g.cfg.Seed)
		assignMisconfigs(spec, g.cfg.Seed)
		assignEndpoints(spec, g.cfg.Seed)
	}
	return spec
}

// Filtered returns the apps passing the paper's selection filter, in rank
// order (the analysis population plus broken APKs).
func (c *Corpus) Filtered() []*Spec {
	var out []*Spec
	for _, s := range c.Apps {
		if s.Eligible(MinDownloads, UpdateCutoff) {
			out = append(out, s)
		}
	}
	return out
}

// Top returns the n highest-download filtered apps.
func (c *Corpus) Top(n int) []*Spec {
	f := c.Filtered()
	if n > len(f) {
		n = len(f)
	}
	return f[:n]
}

// AppByPackage finds a spec by package name, or nil.
func (c *Corpus) AppByPackage(pkg string) *Spec {
	c.idxOnce.Do(func() {
		c.byPkg = make(map[string]*Spec, len(c.Apps))
		for _, s := range c.Apps {
			c.byPkg[s.Package] = s
		}
	})
	return c.byPkg[pkg]
}

// ByPackage implements Source over the materialized corpus.
func (c *Corpus) ByPackage(pkg string) *Spec { return c.AppByPackage(pkg) }

// Each implements Source: specs in snapshot (download-rank) order.
func (c *Corpus) Each(fn func(*Spec) error) error {
	for _, s := range c.Apps {
		if err := fn(s); err != nil {
			return err
		}
	}
	return nil
}

// Total reports the number of repository snapshot entries.
func (c *Corpus) Total() int { return c.Counts.Total }

// scaledDownloads maps a reduced-corpus rank to a paper-scale rank and
// evaluates the install-count model there, clamped to the popularity band.
func scaledDownloads(r, topK, scale int) int64 {
	paperRank := r
	if r > topK {
		paperRank = topK + (r-topK)*scale
	}
	d := downloadsBand(paperRank)
	if d < MinDownloads {
		d = MinDownloads
	}
	return d
}

// downloadsBand implements the piecewise install model: the named top apps'
// real counts at ranks 1-11, a flat 97.4M→86M band through rank 1000 (the
// paper notes every top-1K app has ≥86M installs), then a power-law decay
// hitting the 100K threshold at the paper's popular-app count.
func downloadsBand(rank int) int64 {
	if rank <= len(NamedApps) {
		return NamedApps[rank-1].Downloads
	}
	if rank <= 1000 {
		frac := float64(rank-len(NamedApps)) / float64(1000-len(NamedApps))
		return int64(97_400_000 - frac*(97_400_000-86_000_000))
	}
	// Geometric interpolation 86M → 100K over ranks 1000..PaperPopularApps.
	frac := float64(rank-1000) / float64(PaperPopularApps-1000)
	if frac > 1 {
		frac = 1
	}
	return int64(86_000_000 * math.Pow(100_000.0/86_000_000.0, frac))
}

func longTailDownloads(r, onPlay int) int64 {
	// Below the popularity threshold: 99,999 down to ~500.
	span := onPlay - r + 1
	d := int64(500 + span%99_000)
	if d >= MinDownloads {
		d = MinDownloads - 1
	}
	return d
}

// appRNG derives a per-app random stream independent of generation order.
func appRNG(seed int64, pkg string, salt string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", seed, pkg, salt)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// pickPlayCategory draws a Play category from the weighted list.
func pickPlayCategory(rng *rand.Rand) playCategory {
	total := 0.0
	for _, pc := range playCategories {
		total += pc.Weight
	}
	x := rng.Float64() * total
	for _, pc := range playCategories {
		x -= pc.Weight
		if x <= 0 {
			return pc
		}
	}
	return playCategories[len(playCategories)-1]
}

func playCategoryByName(name string) playCategory {
	for _, pc := range playCategories {
		if pc.Name == name {
			return pc
		}
	}
	return playCategory{Name: name, Weight: 0}
}

// PlayCategories lists the modelled Play Store categories.
func PlayCategories() []string {
	out := make([]string, len(playCategories))
	for i, pc := range playCategories {
		out[i] = pc.Name
	}
	return out
}
