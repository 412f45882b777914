package android

import "testing"

func TestMethodPredicates(t *testing.T) {
	for _, m := range WebViewMethods {
		if !IsWebViewMethod(m) {
			t.Errorf("IsWebViewMethod(%q) = false", m)
		}
	}
	if IsWebViewMethod("setWebViewClient") || IsWebViewMethod("") {
		t.Error("non-measured method classified as measured")
	}
	for _, m := range LoadMethods {
		if !IsLoadMethod(m) {
			t.Errorf("IsLoadMethod(%q) = false", m)
		}
		if !IsWebViewMethod(m) {
			t.Errorf("load method %q not in the measured surface", m)
		}
	}
	if IsLoadMethod(MethodEvaluateJavascript) {
		t.Error("evaluateJavascript classified as a load method")
	}
}

func TestSurfaceMatchesTable7(t *testing.T) {
	// Table 7 measures exactly seven WebView methods.
	if len(WebViewMethods) != 7 {
		t.Errorf("measured surface = %d methods, want 7", len(WebViewMethods))
	}
	if WebViewMethods[0] != MethodLoadURL {
		t.Errorf("first measured method = %q, want loadUrl (Table 7 order)", WebViewMethods[0])
	}
}

func TestEntryPointsIncludeAllComponents(t *testing.T) {
	want := map[string]bool{
		"onCreate": false, "onClick": false, "onReceive": false,
		"onStartCommand": false, "query": false,
	}
	for _, ep := range LifecycleEntryPoints {
		if _, ok := want[ep]; ok {
			want[ep] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("entry point %q missing", name)
		}
	}
}

func TestIsPackageName(t *testing.T) {
	for s, want := range map[string]bool{
		"com.example.app": true, "a": true, "A_1.b2": true, "x.y_z.Q9": true,
		"": false, ".": false, "a.": false, ".a": false, "a..b": false,
		"1a": false, "a.1b": false, "_a": false, "a-b": false, "a,b": false,
		"a/b": false, "a b": false, "é": false,
	} {
		if got := IsPackageName(s); got != want {
			t.Errorf("IsPackageName(%q) = %v, want %v", s, got, want)
		}
	}
}
