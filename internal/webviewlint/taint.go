package webviewlint

import (
	"fmt"
	"strings"

	"repro/internal/urlextract"
)

// The unsafe-load-url rule is a def-use taint walk over the decompiled
// sources. Sources are intent accessors (attacker-controlled deep-link
// data), derivers propagate taint through value-preserving transformations,
// and sinks are the WebView content-loading methods. Within a method the
// walk follows assignment chains (`Object v1 = this.getIntent(); Object v2
// = v1.getDataString();`); across methods it delegates to the urlextract
// engine's interprocedural parameter-taint fixpoint over the bytecode call
// graph, whose per-method walk mirrors the decompiler's rendering exactly —
// a tainted argument at position k taints the callee's k-th declared
// parameter, and the source-level pass here picks the result up by name.

// taintSources start a taint chain when their result is assigned.
var taintSources = map[string]bool{
	"getIntent": true,
}

// taintDerivers propagate taint from receiver or argument to result.
var taintDerivers = map[string]bool{
	"getData": true, "getDataString": true, "getStringExtra": true,
	"getExtras": true, "getString": true, "getQueryParameter": true,
	"toString": true, "trim": true, "concat": true,
}

// taintSinks load attacker-controllable strings into a WebView.
var taintSinks = map[string]bool{
	"loadUrl": true, "evaluateJavascript": true, "loadData": true,
	"loadDataWithBaseURL": true, "postUrl": true,
}

type methodKey struct{ class, method string }

// taintFindings seeds each method's tainted parameter names from the
// bytecode fixpoint, then walks every method's source body once and emits a
// finding for every sink call receiving a tainted argument. Without a call
// graph only intra-method flows are visible.
func (a *Analyzer) taintFindings(app App, classes map[string]*classInfo, order []string) []Finding {
	if !a.enabled[RuleUnsafeLoadURL] {
		return nil
	}
	paramTaint := a.seedParamTaint(app, classes)
	reported := make(map[methodKey]map[int]bool) // sink lines already emitted

	var out []Finding
	for _, name := range order {
		ci := classes[name]
		for mi := range ci.td.Methods {
			m := &ci.td.Methods[mi]
			k := methodKey{name, m.Name}
			tainted := make(map[string]bool, 4)
			for p := range paramTaint[k] {
				tainted[p] = true
			}
			for ci2 := range m.Calls {
				c := &m.Calls[ci2]
				switch {
				case taintSources[c.Name]:
					if c.Assign != "" {
						tainted[c.Assign] = true
					}
				case taintDerivers[c.Name]:
					src := rootTainted(c.Receiver, tainted)
					for _, arg := range c.Args {
						src = src || exprTainted(arg, tainted)
					}
					if src && c.Assign != "" {
						tainted[c.Assign] = true
					}
				}
				if !taintSinks[c.Name] {
					continue
				}
				for _, arg := range c.Args {
					if !exprTainted(arg, tainted) {
						continue
					}
					if reported[k] == nil {
						reported[k] = make(map[int]bool, 1)
					}
					if !reported[k][c.Line] {
						reported[k][c.Line] = true
						def, _ := RuleByID(RuleUnsafeLoadURL)
						out = append(out, Finding{
							Rule: RuleUnsafeLoadURL, Severity: def.Severity,
							Class: name, Method: m.Name, Line: c.Line,
							Detail: fmt.Sprintf("%s(%s): argument derived from intent data", c.Name, arg),
						})
					}
					break
				}
			}
		}
	}
	return out
}

// seedParamTaint maps the engine's per-ref tainted parameter indices onto
// source-level parameter names, keyed the way the source walk looks methods
// up (class + method name; overloads share a key, as their decompiled
// parameter names do).
func (a *Analyzer) seedParamTaint(app App, classes map[string]*classInfo) map[methodKey]map[string]bool {
	paramTaint := make(map[methodKey]map[string]bool)
	if app.Graph == nil {
		return paramTaint
	}
	engine := urlextract.ParamTaint(app.Graph, urlextract.TaintConfig{
		Sources: taintSources, Derivers: taintDerivers, Sinks: taintSinks,
	})
	for id, params := range engine {
		if params == nil {
			continue
		}
		ref := app.Graph.Ref(int32(id))
		ci := classes[ref.Class]
		if ci == nil {
			continue
		}
		k := methodKey{ref.Class, ref.Name}
		for idx, tainted := range params {
			if !tainted {
				continue
			}
			for mi := range ci.td.Methods {
				cm := &ci.td.Methods[mi]
				if cm.Name != ref.Name || idx >= len(cm.Params) {
					continue
				}
				if paramTaint[k] == nil {
					paramTaint[k] = make(map[string]bool, 2)
				}
				paramTaint[k][cm.Params[idx]] = true
				break
			}
		}
	}
	return paramTaint
}

// rootTainted reports whether the leading identifier of a receiver chain
// ("v1" in "v1.getExtras") is tainted.
func rootTainted(recv string, tainted map[string]bool) bool {
	if recv == "" {
		return false
	}
	if i := strings.IndexByte(recv, '.'); i >= 0 {
		recv = recv[:i]
	}
	return tainted[recv]
}

// exprTainted reports whether an argument expression carries taint: its
// root identifier is tainted and every method applied in the chain is a
// value-preserving deriver ("v1.getDataString().trim()" stays tainted,
// "Sanitizer.clean(v1)" does not — its root is the sanitizer class).
func exprTainted(expr string, tainted map[string]bool) bool {
	root := leadingIdent(expr)
	if root == "" || !tainted[root] {
		return false
	}
	// Every name immediately preceding a '(' must be a deriver.
	rest := expr[len(root):]
	for i := 0; i < len(rest); i++ {
		if rest[i] != '(' {
			continue
		}
		j := i
		for j > 0 && isIdentByte(rest[j-1]) {
			j--
		}
		if name := rest[j:i]; name != "" && !taintDerivers[name] {
			return false
		}
	}
	return true
}

func leadingIdent(s string) string {
	i := 0
	for i < len(s) && isIdentByte(s[i]) {
		i++
	}
	return s[:i]
}

func isIdentByte(b byte) bool {
	return b == '_' || b == '$' ||
		'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9'
}
