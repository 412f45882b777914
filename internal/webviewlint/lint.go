package webviewlint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/android"
	"repro/internal/callgraph"
	"repro/internal/javaparser"
	"repro/internal/sdkindex"
)

// engineVersion is mixed into Fingerprint so that semantic changes to the
// engine (not just the rule registry) can invalidate cached results.
// Version 2: interprocedural taint propagation moved onto the urlextract
// engine's bytecode fixpoint (findings unchanged; caches conservatively
// invalidated). Version 3: with a call graph, the WebViewClient check is
// the graph's answer alone; an imported type that shares
// android.webkit.WebViewClient's simple name no longer passes for it.
const engineVersion = 3

// Config selects which rules run. A nil Rules slice enables the whole
// registry; naming an unknown rule is a configuration error surfaced by New.
type Config struct {
	Rules []string
}

// Analyzer is a configured lint engine. It is immutable after New and safe
// for concurrent use by multiple pipeline workers.
type Analyzer struct {
	enabled map[string]bool
	fp      string
}

// New validates the configuration and builds an analyzer.
func New(cfg Config) (*Analyzer, error) {
	a := &Analyzer{enabled: make(map[string]bool, len(rules))}
	if cfg.Rules == nil {
		for _, r := range rules {
			a.enabled[r.ID] = true
		}
	} else {
		for _, id := range cfg.Rules {
			if _, ok := RuleByID(id); !ok {
				return nil, fmt.Errorf("webviewlint: unknown rule %q", id)
			}
			a.enabled[id] = true
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "engine=%d\n", engineVersion)
	for _, r := range rules { // registry order: deterministic
		if a.enabled[r.ID] {
			fmt.Fprintf(h, "%s\x00%s\x00%s\n", r.ID, r.Severity, r.Description)
		}
	}
	a.fp = hex.EncodeToString(h.Sum(nil))[:16]
	return a, nil
}

// Fingerprint returns a short stable hash over the enabled rule definitions
// and engine version. Content-addressed result caches mix it into their
// keys, so changing the lint configuration invalidates cached lint results
// instead of silently serving findings from the old rule set.
func (a *Analyzer) Fingerprint() string { return a.fp }

// Enabled reports whether the rule runs under this configuration.
func (a *Analyzer) Enabled(id string) bool { return a.enabled[id] }

// App is one APK's analysis inputs: its compilation units (the pipeline
// passes decompiler.Parsed, the units javaparser reads from the decompiled
// source), the bytecode call graph (for interprocedural edges and
// class-hierarchy queries) and the SDK index used for attribution. Graph
// and Index may be nil — hierarchy checks then fall back to source-level
// resolution and every finding is attributed first-party.
type App struct {
	Units []*javaparser.CompilationUnit
	Graph *callgraph.Graph
	Index *sdkindex.Index
}

// Finding is one rule violation at a source position, attributed to the
// first-party app or an SDK by the package prefix of the containing class.
type Finding struct {
	Rule        string   `json:"rule"`
	Severity    Severity `json:"severity"`
	Class       string   `json:"class"` // fully-qualified containing class
	Method      string   `json:"method"`
	Line        int      `json:"line"`
	Detail      string   `json:"detail"`
	SDK         string   `json:"sdk,omitempty"`         // SDK name, "" for first-party
	SDKCategory string   `json:"sdkCategory,omitempty"` // SDK category, "" for first-party
	FirstParty  bool     `json:"firstParty"`
}

// classInfo pairs a type declaration with its enclosing unit so methods can
// be looked up by fully-qualified class name during the taint walk.
type classInfo struct {
	unit *javaparser.CompilationUnit
	td   *javaparser.TypeDecl
}

// fqn returns the class's fully-qualified name.
func fqn(u *javaparser.CompilationUnit, td *javaparser.TypeDecl) string {
	if u.Package == "" {
		return td.Name
	}
	return u.Package + "." + td.Name
}

func packageOf(class string) string {
	if i := strings.LastIndexByte(class, '.'); i >= 0 {
		return class[:i]
	}
	return ""
}

// settingRules maps a WebSettings/WebView configuration method to the rule
// its misuse triggers; matched when the first argument enables the feature.
var settingRules = map[string]string{
	android.MethodSetJavaScriptEnabled:                RuleJSEnabled,
	android.MethodSetAllowFileAccess:                  RuleFileAccess,
	android.MethodSetAllowFileAccessFromFileURLs:      RuleFileURLAccess,
	android.MethodSetAllowUniversalAccessFromFileURLs: RuleUniversalFileAccess,
	android.MethodSetWebContentsDebuggingEnabled:      RuleDebuggableWebView,
}

// Analyze runs every enabled rule over the app and returns the findings
// sorted by (class, line, rule). The result is deterministic for a given
// input: identical parsed sources and graph always yield identical findings.
func (a *Analyzer) Analyze(app App) []Finding {
	classes := make(map[string]*classInfo, len(app.Units))
	var order []string // class iteration order = unit order, deterministic
	for _, u := range app.Units {
		for i := range u.Types {
			td := &u.Types[i]
			name := fqn(u, td)
			if _, dup := classes[name]; !dup {
				classes[name] = &classInfo{unit: u, td: td}
				order = append(order, name)
			}
		}
	}

	var out []Finding
	emit := func(rule, class, method string, line int, detail string) {
		if !a.enabled[rule] {
			return
		}
		def, _ := RuleByID(rule)
		out = append(out, Finding{
			Rule: rule, Severity: def.Severity,
			Class: class, Method: method, Line: line, Detail: detail,
		})
	}

	for _, name := range order {
		ci := classes[name]
		sslHandler := a.isWebViewClient(app, ci)
		for mi := range ci.td.Methods {
			m := &ci.td.Methods[mi]
			for ci2 := range m.Calls {
				c := &m.Calls[ci2]
				a.checkCall(c, name, m.Name, emit)
				if sslHandler && isSSLErrorHandler(m.Name) && c.Name == "proceed" {
					emit(RuleSSLErrorProceed, name, m.Name, c.Line,
						"onReceivedSslError calls proceed()")
				}
			}
		}
	}

	out = append(out, a.taintFindings(app, classes, order)...)

	for i := range out {
		attribute(&out[i], app.Index)
	}
	return dedupeSort(out)
}

// checkCall applies the single-call configuration rules.
func (a *Analyzer) checkCall(c *javaparser.Call, class, method string, emit func(string, string, string, int, string)) {
	switch c.Name {
	case android.MethodAddJavascriptInterface:
		detail := "addJavascriptInterface(…)"
		if len(c.Args) >= 2 {
			detail = fmt.Sprintf("addJavascriptInterface(…, %s)", c.Args[len(c.Args)-1])
		}
		emit(RuleJSInterface, class, method, c.Line, detail)
	case android.MethodSetMixedContentMode:
		if len(c.Args) == 1 && (c.Args[0] == "0" || strings.Contains(c.Args[0], "MIXED_CONTENT_ALWAYS_ALLOW")) {
			emit(RuleMixedContent, class, method, c.Line,
				fmt.Sprintf("setMixedContentMode(%s)", c.Args[0]))
		}
	default:
		if rule, ok := settingRules[c.Name]; ok && len(c.Args) == 1 && c.Args[0] == "true" {
			emit(rule, class, method, c.Line, c.Name+"(true)")
		}
	}
}

// isSSLErrorHandler matches the handler method, including the flattened
// "Inner.onReceivedSslError" form the parser produces for nested types.
func isSSLErrorHandler(method string) bool {
	return method == android.MethodOnReceivedSslError ||
		strings.HasSuffix(method, "."+android.MethodOnReceivedSslError)
}

// isWebViewClient reports whether the class is a WebViewClient subclass.
// With a call graph the bytecode hierarchy decides alone; source-level
// import resolution, which cannot tell two imported types of the same
// simple name apart, is the fallback when there is no graph.
func (a *Analyzer) isWebViewClient(app App, ci *classInfo) bool {
	if app.Graph != nil {
		return app.Graph.IsSubclassOf(fqn(ci.unit, ci.td), android.WebViewClientClass)
	}
	return ci.td.Extends != "" && ci.unit.Resolve(ci.td.Extends) == android.WebViewClientClass
}

// attribute labels a finding first-party or SDK by its class's package.
// Excluded catalog entries (com.google.android) count as neither SDK nor
// first-party-suppressed: they attribute first-party like unlabeled code.
func attribute(f *Finding, idx *sdkindex.Index) {
	if idx != nil {
		if s, ok := idx.Lookup(packageOf(f.Class)); ok && !s.Excluded {
			f.SDK = s.Name
			f.SDKCategory = string(s.Category)
			return
		}
	}
	f.FirstParty = true
}

// dedupeSort orders findings by (class, line, rule, method) and drops exact
// positional duplicates — the taint fixpoint can rediscover a sink when a
// method is re-analysed with a grown parameter-taint set.
func dedupeSort(fs []Finding) []Finding {
	if len(fs) == 0 {
		return nil
	}
	sortFindings(fs)
	out := fs[:1]
	for _, f := range fs[1:] {
		p := out[len(out)-1]
		if f.Rule == p.Rule && f.Class == p.Class && f.Method == p.Method && f.Line == p.Line {
			continue
		}
		out = append(out, f)
	}
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Method < b.Method
	})
}
