package corpus_test

// End-to-end lint ground truth: the corpus plants WebView misconfigurations
// per spec, the APK builder turns them into real decompilable code, and the
// webviewlint stage must rediscover exactly the planted set — no more (the
// safe variants and constant-URL loads must stay silent), no less.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/android"
	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/sdkindex"
	"repro/internal/webviewlint"
)

func has(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// attrOf mirrors the engine's attribution: the SDK name of the longest
// catalog prefix of the class's package, or "" for first-party/unlabeled.
func attrOf(idx *sdkindex.Index, class string) string {
	pkg := class
	if i := strings.LastIndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	if sdk, ok := idx.Lookup(pkg); ok && !sdk.Excluded {
		return sdk.Name
	}
	return ""
}

// expectedFindings derives the exact (rule, attribution) multiset the lint
// stage must report for a spec, from the planted ground truth alone.
func expectedFindings(idx *sdkindex.Index, s *corpus.Spec) map[string]int {
	exp := make(map[string]int)
	key := func(rule, sdk string) string { return rule + "|" + sdk }
	if s.Obfuscated {
		return exp
	}
	if len(s.OwnMethods) > 0 {
		for _, r := range s.Misconfigs {
			class := s.Package + ".web.WebActivity"
			switch r {
			case webviewlint.RuleSSLErrorProceed:
				class = s.Package + ".web.SslGuard"
			case webviewlint.RuleUnsafeLoadURL:
				class = s.Package + ".link.Router"
			}
			exp[key(r, attrOf(idx, class))]++
		}
		if has(s.OwnMethods, android.MethodAddJavascriptInterface) {
			exp[key(webviewlint.RuleJSInterface, attrOf(idx, s.Package+".web.WebActivity"))]++
		}
	}
	for _, use := range s.SDKs {
		if len(use.WebViewMethods) == 0 {
			continue
		}
		class := use.Package + ".internal.WebController"
		for _, r := range use.Misconfigs {
			exp[key(r, attrOf(idx, class))]++
		}
		if has(use.WebViewMethods, android.MethodAddJavascriptInterface) {
			exp[key(webviewlint.RuleJSInterface, attrOf(idx, class))]++
		}
	}
	return exp
}

func lintApp(t *testing.T, idx *sdkindex.Index, lint *webviewlint.Analyzer, s *corpus.Spec) []webviewlint.Finding {
	t.Helper()
	img, err := corpus.BuildAPK(s)
	if err != nil {
		t.Fatalf("BuildAPK(%s): %v", s.Package, err)
	}
	an, err := pipeline.AnalyzeAndExtract(idx, lint, nil, img)
	if err != nil {
		t.Fatalf("AnalyzeAndExtract(%s): %v", s.Package, err)
	}
	return an.Lint
}

// TestLintGroundTruthEndToEnd builds every filtered app at a mid scale,
// runs the full analyze+lint path and checks the findings equal the
// planted ground truth app by app, then that every plantable rule has both
// positive and negative instances corpus-wide.
func TestLintGroundTruthEndToEnd(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 1000})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	idx := sdkindex.Default()
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	rulePos := make(map[string]int) // planted occurrences per rule
	ruleNeg := make(map[string]int) // WebView apps without the rule
	apps := 0
	for _, s := range c.Filtered() {
		if s.Broken {
			continue
		}
		apps++
		got := make(map[string]int)
		for _, f := range lintApp(t, idx, lint, s) {
			got[f.Rule+"|"+f.SDK]++
		}
		want := expectedFindings(idx, s)
		if len(want) == 0 {
			want = make(map[string]int)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: lint findings = %v, planted ground truth %v", s.Package, got, want)
		}
		if len(s.OwnMethods) > 0 && !s.Obfuscated {
			for _, pr := range plantableOwnRules(t) {
				if has(s.Misconfigs, pr) {
					rulePos[pr]++
				} else {
					ruleNeg[pr]++
				}
			}
		}
	}
	if apps < 50 {
		t.Fatalf("only %d analyzable apps at scale 1000; corpus too small for coverage checks", apps)
	}
	for _, pr := range plantableOwnRules(t) {
		if rulePos[pr] == 0 {
			t.Errorf("rule %s: no positive instance planted corpus-wide", pr)
		}
		if ruleNeg[pr] == 0 {
			t.Errorf("rule %s: no negative instance (WebView app without the rule)", pr)
		}
	}
}

// plantableOwnRules lists the rules the corpus can plant in first-party
// code; derived from the registry minus js-interface (emergent from the
// OwnMethods draw) so registry growth is flagged here.
func plantableOwnRules(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, r := range webviewlint.Rules() {
		if r.ID == webviewlint.RuleJSInterface {
			continue
		}
		out = append(out, r.ID)
	}
	if len(out) < 8 {
		t.Fatalf("registry shrank: %d plantable rules", len(out))
	}
	return out
}

// TestLintDeterministic rebuilds and re-lints the misconfiguration
// showcase apps several times and requires byte-identical findings.
func TestLintDeterministic(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 7, Scale: 2000})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	idx := sdkindex.Default()
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, pkg := range []string{"com.facebook.katana", "com.linkedin.android", "com.snapchat.android"} {
		s := c.AppByPackage(pkg)
		if s == nil {
			t.Fatalf("named app %s missing", pkg)
		}
		first := lintApp(t, idx, lint, s)
		if len(first) == 0 {
			t.Fatalf("%s: showcase app produced no findings", pkg)
		}
		for run := 1; run < 4; run++ {
			if again := lintApp(t, idx, lint, s); !reflect.DeepEqual(first, again) {
				t.Fatalf("%s: run %d findings differ:\n%v\nvs\n%v", pkg, run, first, again)
			}
		}
	}
}

// TestLintShowcaseCoversInterprocedural pins the hardest rule: the named
// showcase must produce unsafe-load-url findings located in the Router
// class, reached only through the call-graph edge from LinkOpener.
func TestLintShowcaseCoversInterprocedural(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 2000})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	idx := sdkindex.Default()
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s := c.AppByPackage("com.instagram.android")
	if s == nil {
		t.Fatal("instagram missing from corpus")
	}
	found := false
	for _, f := range lintApp(t, idx, lint, s) {
		if f.Rule == webviewlint.RuleUnsafeLoadURL {
			found = true
			if want := "com.instagram.android.link.Router"; f.Class != want {
				t.Errorf("unsafe-load-url located in %s, want %s", f.Class, want)
			}
		}
	}
	if !found {
		t.Error("showcase unsafe-load-url finding missing")
	}
}

// TestObfuscatedAppsCarryNoMisconfigs: reflective apps hide their WebView
// surface, so the generator must not plant misconfigs and the lint stage
// must come back empty on them.
func TestObfuscatedAppsCarryNoMisconfigs(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 3, Scale: 2000, ObfuscationRate: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	idx := sdkindex.Default()
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	checked := 0
	for _, s := range c.Filtered() {
		if !s.Obfuscated || s.Broken {
			continue
		}
		if len(s.Misconfigs) > 0 {
			t.Fatalf("%s: obfuscated app has planted misconfigs %v", s.Package, s.Misconfigs)
		}
		if checked < 10 { // lint a sample; building every APK is covered elsewhere
			if fs := lintApp(t, idx, lint, s); len(fs) != 0 {
				t.Errorf("%s: obfuscated app produced findings %v", s.Package, fs)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no obfuscated apps generated")
	}
}
