// Package webviewlint is a configurable, interprocedural static-analysis
// engine for WebView security misconfigurations, run by the pipeline as a
// stage after each APK's analysis over its compilation units
// (javaparser.CompilationUnit, built by decompiler.Parsed from the
// decompiler's walk of the dex) and call graph (callgraph.Graph).
//
// The paper's static pipeline (§3.1) records which WebView APIs apps call;
// its security discussion (§5) hinges on how those WebViews are configured
// — JavaScript bridges, file-access flags, SSL-error handling. This package
// makes that concrete as a rule registry in the style of BabelView and
// Gadient et al.: each rule has a stable ID and severity, findings carry
// exact class/method/line positions, and every finding is attributed to
// first-party or SDK code via the sdkindex package-prefix catalog — so
// misconfiguration prevalence is reported per app and per SDK, mirroring
// the paper's SDK-labeling style.
package webviewlint

// Severity ranks a rule's security impact.
type Severity string

// Severities, weakest to strongest.
const (
	Info     Severity = "info"
	Warning  Severity = "warning"
	High     Severity = "high"
	Critical Severity = "critical"
)

// Rule IDs.
const (
	RuleJSEnabled           = "js-enabled"
	RuleJSInterface         = "js-interface"
	RuleFileAccess          = "file-access"
	RuleFileURLAccess       = "file-url-access"
	RuleUniversalFileAccess = "universal-file-access"
	RuleMixedContent        = "mixed-content-allow"
	RuleSSLErrorProceed     = "ssl-error-proceed"
	RuleUnsafeLoadURL       = "unsafe-load-url"
	RuleDebuggableWebView   = "debuggable-webview"
)

// Rule is one registry entry. The registry is part of the engine's
// configuration fingerprint: editing a rule invalidates cached lint
// results (and nothing else).
type Rule struct {
	ID          string
	Severity    Severity
	Description string
}

// rules is the built-in registry, in report order.
var rules = []Rule{
	{RuleJSEnabled, Warning,
		"setJavaScriptEnabled(true): JavaScript enabled for loaded content"},
	{RuleJSInterface, High,
		"addJavascriptInterface: native bridge exposed to page JavaScript"},
	{RuleFileAccess, Warning,
		"setAllowFileAccess(true): file:// URLs readable by the WebView"},
	{RuleFileURLAccess, High,
		"setAllowFileAccessFromFileURLs(true): file:// content can read other files"},
	{RuleUniversalFileAccess, Critical,
		"setAllowUniversalAccessFromFileURLs(true): file:// content escapes the same-origin policy"},
	{RuleMixedContent, Warning,
		"setMixedContentMode(MIXED_CONTENT_ALWAYS_ALLOW): HTTPS pages may load HTTP subresources"},
	{RuleSSLErrorProceed, Critical,
		"onReceivedSslError handler calls proceed(): TLS errors silently ignored"},
	{RuleUnsafeLoadURL, High,
		"intent/deep-link data reaches loadUrl or evaluateJavascript unvalidated"},
	{RuleDebuggableWebView, Info,
		"setWebContentsDebuggingEnabled(true): remote debugging left on"},
}

// Rules returns the full registry in report order.
func Rules() []Rule { return append([]Rule(nil), rules...) }

// RuleByID looks a registry entry up, reporting whether the ID exists.
func RuleByID(id string) (Rule, bool) {
	for _, r := range rules {
		if r.ID == id {
			return r, true
		}
	}
	return Rule{}, false
}
