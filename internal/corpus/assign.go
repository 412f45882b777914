package corpus

import (
	"math/rand"
	"sort"

	"repro/internal/android"
	"repro/internal/sdkindex"
)

// Rates derived in DESIGN.md from Table 7: first-party (non-SDK) WebView and
// CT code rates chosen so that, combined with SDK-driven usage, overall
// adoption lands on 55.76% WebView / 19.88% CT. The overlap adjustments
// shrink per-category inclusion probabilities because the paper's category
// unions overlap (apps use SDKs of several categories) more than independent
// draws would produce.
const (
	ownWebViewRate  = 0.2932
	ownCTRate       = 0.0105
	deepLinkRate    = 0.12
	wvOverlapAdjust = 1.22
	ctOverlapAdjust = 0.855
)

// Web-adoption is correlated across surfaces: apps that embed web content
// tend to do so through both WebViews and CTs (the paper's 15% "both"
// exceeds the ~11% independence would give). A two-point per-app factor
// with mean 1 induces the needed positive correlation without shifting the
// marginals.
const (
	webbyHigh = 1.68
	webbyLow  = 0.32
)

// Affinity multipliers are normalised so their population-weighted mean is
// 1: Play-category affinities shift adoption between categories without
// changing the corpus-wide rate.
var (
	wvAffinityNorm = affinityNorms(func(pc playCategory) map[sdkindex.Category]float64 { return pc.WVAffinity })
	ctAffinityNorm = affinityNorms(func(pc playCategory) map[sdkindex.Category]float64 { return pc.CTAffinity })
)

func affinityNorms(get func(playCategory) map[sdkindex.Category]float64) map[sdkindex.Category]float64 {
	norms := make(map[sdkindex.Category]float64, len(sdkindex.Categories))
	var totalW float64
	for _, pc := range playCategories {
		totalW += pc.Weight
	}
	for _, cat := range sdkindex.Categories {
		sum := 0.0
		for _, pc := range playCategories {
			sum += pc.Weight * affinity(get(pc), cat)
		}
		norms[cat] = sum / totalW
	}
	return norms
}

// assignStatic plants the app's static ground truth: which SDKs it embeds
// (per-category inclusion calibrated to the Tables 4/5 unions, modulated by
// the app's Play-category affinities), which WebView API methods each SDK
// copy calls (category method profiles, Figure 4), first-party WebView/CT
// code, and whether the app exposes a deep-link activity.
func assignStatic(s *Spec, idx *sdkindex.Index, seed int64) {
	rng := appRNG(seed, s.Package, "static")
	defer rngPool.Put(rng)
	if s.PlayCategory == "" {
		s.PlayCategory = pickPlayCategory(rng).Name
	}
	pc := playCategoryByName(s.PlayCategory)
	webby := webbyLow
	if rng.Float64() < 0.5 {
		webby = webbyHigh
	}

	for _, cat := range sdkindex.Categories {
		target := sdkindex.TargetFor(cat)
		sdks := idx.ByCategory(cat)

		// WebView side of the category. One method set is drawn per
		// (app, category) and shared by every SDK of the category:
		// Figure 4's heatmap is app-level, and unioning independent
		// per-SDK draws (~2 ad SDKs per ad app) would inflate the rates.
		if target.WebViewApps > 0 {
			p := float64(target.WebViewApps) / float64(PaperAnalyzedApps) *
				wvOverlapAdjust * webby * affinity(pc.WVAffinity, cat) / wvAffinityNorm[cat]
			if rng.Float64() < p {
				methods := drawMethods(rng, categoryProfiles[cat])
				includeCategorySDKs(s, rng, sdks, cat, target.WebViewApps, false, methods)
			}
		}
		// Custom Tabs side.
		if target.CTApps > 0 {
			p := float64(target.CTApps) / float64(PaperAnalyzedApps) *
				ctOverlapAdjust * webby * affinity(pc.CTAffinity, cat) / ctAffinityNorm[cat]
			if rng.Float64() < p {
				includeCategorySDKs(s, rng, sdks, cat, target.CTApps, true, nil)
			}
		}
	}

	// First-party code (independent of SDKs). Named apps arrive with fixed
	// OwnMethods; leave those untouched.
	if len(s.OwnMethods) == 0 && rng.Float64() < ownWebViewRate*webby {
		s.OwnMethods = drawMethods(rng, ownProfile)
	}
	if !s.OwnCT && rng.Float64() < ownCTRate*webby {
		s.OwnCT = true
	}
	if rng.Float64() < deepLinkRate {
		s.HasDeepLink = true
	}
}

func affinity(m map[sdkindex.Category]float64, cat sdkindex.Category) float64 {
	if m == nil {
		return 1
	}
	if v, ok := m[cat]; ok {
		return v
	}
	return 1
}

// includeCategorySDKs adds SDKs of one category to the app. Conditional on
// the app using the category at all, each SDK is included with probability
// marginal/union — reproducing both the per-SDK marginals (Tables 4/5) and
// the category unions. At least one SDK is always included (weighted pick)
// so the category union is respected.
func includeCategorySDKs(s *Spec, rng *rand.Rand, sdks []sdkindex.SDK, cat sdkindex.Category, union int, ct bool, methods []string) {
	picked := false
	for i := range sdks {
		sdk := &sdks[i]
		marginal := sdk.WebViewApps
		if ct {
			marginal = sdk.CTApps
		}
		if marginal == 0 {
			continue
		}
		p := float64(marginal) / float64(union)
		if p > 0.97 {
			p = 0.97
		}
		if rng.Float64() < p {
			addSDKUse(s, sdk, ct, methods)
			picked = true
		}
	}
	if !picked {
		if sdk := weightedPick(rng, sdks, ct); sdk != nil {
			addSDKUse(s, sdk, ct, methods)
		}
	}
}

func weightedPick(rng *rand.Rand, sdks []sdkindex.SDK, ct bool) *sdkindex.SDK {
	total := 0
	for i := range sdks {
		if ct {
			total += sdks[i].CTApps
		} else {
			total += sdks[i].WebViewApps
		}
	}
	if total == 0 {
		return nil
	}
	x := rng.Intn(total)
	for i := range sdks {
		w := sdks[i].WebViewApps
		if ct {
			w = sdks[i].CTApps
		}
		if x -= w; x < 0 {
			return &sdks[i]
		}
	}
	return nil
}

// addSDKUse merges an SDK into the app's SDK list. The WebView side adopts
// the app's per-category method set; the CT side flips UsesCT.
func addSDKUse(s *Spec, sdk *sdkindex.SDK, ct bool, methods []string) {
	var use *SDKUse
	for i := range s.SDKs {
		if s.SDKs[i].Package == sdk.Package {
			use = &s.SDKs[i]
			break
		}
	}
	if use == nil {
		s.SDKs = append(s.SDKs, SDKUse{Package: sdk.Package})
		use = &s.SDKs[len(s.SDKs)-1]
	}
	if ct {
		use.UsesCT = true
		return
	}
	if len(use.WebViewMethods) == 0 {
		use.WebViewMethods = append([]string(nil), methods...)
	}
}

// drawMethods samples a method set from a profile, guaranteeing at least
// one content-populating method (an SDK that loads nothing would be
// invisible to the attribution step, §3.1.4).
func drawMethods(rng *rand.Rand, profile methodProfile) []string {
	var out []string
	hasLoad := false
	for _, m := range android.WebViewMethods {
		if rng.Float64() < profile[m] {
			out = append(out, m)
			if android.IsLoadMethod(m) {
				hasLoad = true
			}
		}
	}
	if !hasLoad {
		out = append(out, android.MethodLoadURL)
	}
	sort.Strings(out)
	return out
}

// topBehaviors assigns Table 6's composition to the top-K download ranks:
// the named apps keep their fixed behaviours; the remaining slots are a
// deterministic shuffle of 27 browser-opening link apps, 9 browser apps,
// 24 phone-gated, 22 incompatible, 2 paid-only and no-user-content fillers.
// When K < 1000 the non-named counts shrink proportionally.
func topBehaviors(seed int64, k int) []Dynamic {
	out := make([]Dynamic, k)
	named := len(NamedApps)
	if k <= named {
		for i := 0; i < k; i++ {
			out[i] = NamedApps[i].Dynamic
		}
		return out
	}
	for i := 0; i < named; i++ {
		out[i] = NamedApps[i].Dynamic
	}
	rest := k - named
	scaleOf := func(n int) int {
		if k >= 1000 {
			return n
		}
		return n * rest / (1000 - named)
	}
	var tags []Dynamic
	push := func(n int, d Dynamic) {
		for i := 0; i < n; i++ {
			tags = append(tags, d)
		}
	}
	push(scaleOf(top1kBrowserLinkApps), Dynamic{HasUserContent: true, LinkSurface: "Post", LinkOpens: LinkBrowser})
	push(scaleOf(top1kBrowserApps), Dynamic{IsBrowser: true})
	push(scaleOf(top1kRequiresPhone), Dynamic{RequiresPhone: true})
	push(scaleOf(top1kIncompatible), Dynamic{Incompatible: true})
	push(scaleOf(top1kPaidOnly), Dynamic{PaidOnly: true})
	for len(tags) < rest {
		tags = append(tags, Dynamic{}) // no user-generated content
	}
	tags = tags[:rest]
	rng := rand.New(rand.NewSource(seed ^ 0x746f7031303030))
	rng.Shuffle(len(tags), func(i, j int) { tags[i], tags[j] = tags[j], tags[i] })
	copy(out[named:], tags)
	return out
}
