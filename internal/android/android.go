// Package android centralises the names of the Android framework classes,
// methods and intent constants that the measurement pipeline looks for.
// Keeping them in one place guarantees the corpus generator (which plants
// calls) and the static analyses (which detect them) agree exactly on the
// API surface, the same way the paper anchors its detection on Android's
// documented class and method names.
package android

// Framework class names.
const (
	WebViewClass                 = "android.webkit.WebView"
	WebViewClientClass           = "android.webkit.WebViewClient"
	WebChromeClientClass         = "android.webkit.WebChromeClient"
	CustomTabsIntentClass        = "androidx.browser.customtabs.CustomTabsIntent"
	CustomTabsIntentBuilderClass = "androidx.browser.customtabs.CustomTabsIntent$Builder"
	CustomTabsCallbackClass      = "androidx.browser.customtabs.CustomTabsCallback"
	ActivityClass                = "android.app.Activity"
	ServiceClass                 = "android.app.Service"
	BroadcastReceiverClass       = "android.content.BroadcastReceiver"
	ContentProviderClass         = "android.content.ContentProvider"
	IntentClass                  = "android.content.Intent"
	ContextClass                 = "android.content.Context"
	ViewClass                    = "android.view.View"
	ObjectClass                  = "java.lang.Object"
)

// WebView content-loading and modification methods the paper measures
// (Table 7). LoadMethods are the subset whose presence marks an SDK package
// as "populating content" into a WebView (§3.1.4).
var (
	// WebViewMethods is the full measured WebView API-method surface, in
	// the order Table 7 reports it.
	WebViewMethods = []string{
		MethodLoadURL,
		MethodAddJavascriptInterface,
		MethodLoadDataWithBaseURL,
		MethodEvaluateJavascript,
		MethodRemoveJavascriptInterface,
		MethodLoadData,
		MethodPostURL,
	}

	// LoadMethods are the WebView methods that populate web content; a
	// package calling one of these is attributed as the WebView's driver.
	LoadMethods = []string{MethodLoadURL, MethodLoadData, MethodLoadDataWithBaseURL}
)

// Individual WebView method names.
const (
	MethodLoadURL                   = "loadUrl"
	MethodAddJavascriptInterface    = "addJavascriptInterface"
	MethodLoadDataWithBaseURL       = "loadDataWithBaseURL"
	MethodEvaluateJavascript        = "evaluateJavascript"
	MethodRemoveJavascriptInterface = "removeJavascriptInterface"
	MethodLoadData                  = "loadData"
	MethodPostURL                   = "postUrl"

	// MethodLaunchURL populates content into a Custom Tab (§3.1.4).
	MethodLaunchURL = "launchUrl"
)

// WebView configuration surface the misconfiguration lint audits (§5
// security discussion): the WebSettings toggles, the remote-debugging
// switch and the SslErrorHandler callback protocol.
const (
	WebSettingsClass     = "android.webkit.WebSettings"
	SslErrorHandlerClass = "android.webkit.SslErrorHandler"

	MethodGetSettings                         = "getSettings"
	MethodSetJavaScriptEnabled                = "setJavaScriptEnabled"
	MethodSetAllowFileAccess                  = "setAllowFileAccess"
	MethodSetAllowFileAccessFromFileURLs      = "setAllowFileAccessFromFileURLs"
	MethodSetAllowUniversalAccessFromFileURLs = "setAllowUniversalAccessFromFileURLs"
	MethodSetMixedContentMode                 = "setMixedContentMode"
	MethodSetWebContentsDebuggingEnabled      = "setWebContentsDebuggingEnabled"
	MethodOnReceivedSslError                  = "onReceivedSslError"
)

// Intent actions and categories used in deep-link / Web-URI handling.
const (
	ActionView        = "android.intent.action.VIEW"
	ActionMain        = "android.intent.action.MAIN"
	CategoryBrowsable = "android.intent.category.BROWSABLE"
	CategoryDefault   = "android.intent.category.DEFAULT"
	CategoryLauncher  = "android.intent.category.LAUNCHER"
)

// Activity lifecycle methods that act as call-graph entry points, plus the
// common GUI callback. An Android app has no main(); traversal starts from
// every component's lifecycle and event surface (§3.1.3).
var LifecycleEntryPoints = []string{
	"onCreate", "onStart", "onResume", "onPause", "onStop", "onDestroy",
	"onRestart", "onNewIntent",
	"onClick", "onTouch", "onItemClick", "onMenuItemSelected",
	"onReceive",      // BroadcastReceiver
	"onStartCommand", // Service
	"onBind",         // Service
	"query",          // ContentProvider
}

// IsWebViewMethod reports whether name is one of the measured WebView API
// methods.
func IsWebViewMethod(name string) bool {
	for _, m := range WebViewMethods {
		if m == name {
			return true
		}
	}
	return false
}

// IsLoadMethod reports whether name is a WebView content-populating method.
func IsLoadMethod(name string) bool {
	for _, m := range LoadMethods {
		if m == name {
			return true
		}
	}
	return false
}

// XRequestedWithHeader is the header WebView stamps on every request with
// the embedding app's package name (§5).
const XRequestedWithHeader = "X-Requested-With"

// IsPackageName reports whether s is a package name: dot-separated
// segments, each a letter followed by letters, digits or underscores. It
// is the one check the store and repository services and their clients
// apply, so nothing else reaches a request path.
func IsPackageName(s string) bool {
	start := true // at the first byte of a segment
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case start:
			return false
		case c >= '0' && c <= '9', c == '_':
		case c == '.':
			start = true
			continue
		default:
			return false
		}
		start = false
	}
	return !start
}
