package corpus

import (
	"repro/internal/webviewlint"
)

// Misconfiguration ground truth. Each eligible app draws, from its own
// "lint" random stream (independent of the "static" stream so adding the
// lint study never perturbs the SDK/method assignment), the set of
// webviewlint rules its planted code violates. The APK builder turns each
// planted rule ID into real misconfiguration code; the lint stage has to
// decompile, parse and traverse to find it again.

// ownMisconfigRules are the rules plantable in first-party code, with the
// prevalence each occurs at among apps that ship their own WebView code.
// js-interface is deliberately absent: it fires organically whenever the
// app's OwnMethods include addJavascriptInterface.
var ownMisconfigRules = []struct {
	ID   string
	Rate float64
}{
	{webviewlint.RuleJSEnabled, 0.55},
	{webviewlint.RuleFileAccess, 0.12},
	{webviewlint.RuleFileURLAccess, 0.05},
	{webviewlint.RuleUniversalFileAccess, 0.03},
	{webviewlint.RuleMixedContent, 0.10},
	{webviewlint.RuleDebuggableWebView, 0.04},
	{webviewlint.RuleSSLErrorProceed, 0.06},
	{webviewlint.RuleUnsafeLoadURL, 0.08},
}

// sdkMisconfigRules are the rules plantable inside an embedded SDK's own
// package: the WebSettings-style rules only (SDKs configure the WebViews
// they drive; the ssl/deep-link patterns are app-component idioms).
var sdkMisconfigRules = []struct {
	ID   string
	Rate float64
}{
	{webviewlint.RuleJSEnabled, 0.40},
	{webviewlint.RuleFileAccess, 0.08},
	{webviewlint.RuleFileURLAccess, 0.03},
	{webviewlint.RuleUniversalFileAccess, 0.02},
	{webviewlint.RuleMixedContent, 0.12},
	{webviewlint.RuleDebuggableWebView, 0.02},
}

// namedMisconfigs fixes the named top apps' first-party misconfigurations
// as a deterministic showcase: across the ranks every plantable rule has at
// least one positive instance at any corpus scale, and Reddit/Discord stay
// clean as whole-app negatives.
var namedMisconfigs = map[string][]string{
	"com.facebook.katana":   {webviewlint.RuleJSEnabled, webviewlint.RuleMixedContent},
	"com.instagram.android": {webviewlint.RuleFileAccess, webviewlint.RuleUnsafeLoadURL},
	"com.snapchat.android":  {webviewlint.RuleSSLErrorProceed},
	"com.twitter.android":   {webviewlint.RuleJSEnabled, webviewlint.RuleDebuggableWebView},
	"com.linkedin.android":  {webviewlint.RuleFileURLAccess, webviewlint.RuleUnsafeLoadURL},
	"com.pinterest":         {webviewlint.RuleUniversalFileAccess},
	"in.mohalla.video":      {webviewlint.RuleJSEnabled, webviewlint.RuleSSLErrorProceed},
	"kik.android":           {webviewlint.RuleFileAccess},
	"io.chingari.app":       {webviewlint.RuleMixedContent},
	// com.discord (no first-party WebView) and com.reddit.frontpage stay
	// misconfiguration-free on purpose.
	"com.reddit.frontpage": nil,
	"com.discord":          nil,
}

// assignMisconfigs plants the app's lint ground truth. Obfuscated apps are
// skipped: their WebView surface is reflective, so planting direct
// misconfiguration calls would leak findings the usage analysis cannot see.
func assignMisconfigs(s *Spec, seed int64) {
	if s.Obfuscated {
		return
	}
	rng := appRNG(seed, s.Package, "lint")
	defer rngPool.Put(rng)
	if len(s.OwnMethods) > 0 {
		if fixed, ok := namedMisconfigs[s.Package]; ok {
			s.Misconfigs = append([]string(nil), fixed...)
		} else {
			for _, r := range ownMisconfigRules {
				if rng.Float64() < r.Rate {
					s.Misconfigs = append(s.Misconfigs, r.ID)
				}
			}
		}
	}
	for i := range s.SDKs {
		use := &s.SDKs[i]
		if len(use.WebViewMethods) == 0 {
			continue
		}
		for _, r := range sdkMisconfigRules {
			if rng.Float64() < r.Rate {
				use.Misconfigs = append(use.Misconfigs, r.ID)
			}
		}
	}
}

// hasMisconfig reports whether a planted rule list contains the rule.
func hasMisconfig(rules []string, id string) bool {
	for _, r := range rules {
		if r == id {
			return true
		}
	}
	return false
}
