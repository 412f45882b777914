// Package urlextract is an interprocedural string-dataflow engine over the
// sdex bytecode. It abstractly interprets each method's instruction stream
// with a flat string lattice, computes per-method summaries (constant
// return, parameter passthrough, constant concatenation), propagates them
// bottom-up over the call graph's SCC condensation, and sinks at
// network/WebView APIs to recover the endpoints an app can talk to.
package urlextract

import "strings"

// Tail classifies what follows a Value's known constant prefix.
type Tail int

const (
	// TailNone means the value is exactly the constant prefix.
	TailNone Tail = iota
	// TailParam means prefix + the enclosing method's parameter Param.
	TailParam
	// TailDynamic means prefix + something unknowable statically (⊤ when
	// the prefix is empty).
	TailDynamic
)

// Value is an element of the string lattice: a known constant prefix
// followed by an optional symbolic tail. The lattice is flat per prefix
// with ⊤ = {Prefix: "", Tail: TailDynamic}.
type Value struct {
	Prefix string
	Tail   Tail
	// Param is the parameter index when Tail == TailParam.
	Param int
}

// maxPrefix bounds how much constant text a value may accumulate; joins
// and concatenations past the cap degrade to a dynamic tail, which keeps
// the lattice finite and every fixpoint terminating.
const maxPrefix = 192

// Const returns the lattice value for an exact string constant.
func Const(s string) Value {
	if len(s) > maxPrefix {
		return Value{Prefix: s[:maxPrefix], Tail: TailDynamic}
	}
	return Value{Prefix: s}
}

// Param returns the lattice value for the enclosing method's i-th
// parameter, untouched.
func Param(i int) Value { return Value{Tail: TailParam, Param: i} }

// Dynamic is ⊤: nothing is known about the string.
func Dynamic() Value { return Value{Tail: TailDynamic} }

// IsConst reports whether v is an exact constant.
func (v Value) IsConst() bool { return v.Tail == TailNone }

// Concat models string concatenation a + b. A constant left-hand side
// extends the prefix; any symbolic tail on the left absorbs whatever
// follows (we only track one unknown region, at the end).
func Concat(a, b Value) Value {
	switch a.Tail {
	case TailNone:
		p := a.Prefix + b.Prefix
		if len(p) > maxPrefix {
			return Value{Prefix: p[:maxPrefix], Tail: TailDynamic}
		}
		return Value{Prefix: p, Tail: b.Tail, Param: b.Param}
	default:
		// a ends in an unknown region; appending the empty constant is
		// the identity, anything else degrades the tail to dynamic.
		if b.Tail == TailNone && b.Prefix == "" {
			return a
		}
		return Value{Prefix: a.Prefix, Tail: TailDynamic}
	}
}

// Join is the lattice join: equal values stay, otherwise the result keeps
// the longest common prefix and degrades the tail. Two passthroughs of the
// same parameter with the same prefix are preserved exactly.
func Join(a, b Value) Value {
	if a == b {
		return a
	}
	p := commonPrefix(a.Prefix, b.Prefix)
	if a.Tail == TailParam && b.Tail == TailParam && a.Param == b.Param && a.Prefix == b.Prefix {
		return a
	}
	return Value{Prefix: p, Tail: TailDynamic}
}

func commonPrefix(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i]
}

// NormalizeURL canonicalises an absolute URL for comparison against
// dynamically observed requests: the scheme and host are lowercased and
// default ports dropped. Inputs that do not look like scheme://host...
// are returned unchanged. The function is idempotent (fuzzed).
func NormalizeURL(raw string) string {
	scheme, rest, ok := splitScheme(raw)
	if !ok {
		return raw
	}
	authority, tail := splitAuthority(rest)
	host, port := splitHostPort(authority)
	// Dropping a default port can expose another one ("a:80:80"), so strip
	// until a non-default port or none is left, which keeps the result a
	// fixed point.
	for port == "80" && scheme == "http" || port == "443" && scheme == "https" {
		host, port = splitHostPort(host)
	}
	host = strings.ToLower(host)
	var b strings.Builder
	b.Grow(len(raw))
	b.WriteString(scheme)
	b.WriteString("://")
	b.WriteString(host)
	if port != "" {
		b.WriteByte(':')
		b.WriteString(port)
	}
	b.WriteString(tail)
	return b.String()
}

// HostOf extracts the lowercased host of an absolute URL, or "" when the
// string is not one.
func HostOf(raw string) string {
	_, rest, ok := splitScheme(raw)
	if !ok {
		return ""
	}
	authority, _ := splitAuthority(rest)
	host, _ := splitHostPort(authority)
	return strings.ToLower(host)
}

// HostPrefixOf returns the host portion of a partial URL prefix that was
// cut before the authority terminator — e.g. "https://api.ex" yields
// ("api.ex", true) meaning "a host starting with api.ex". Complete URLs
// and non-URLs return ok = false; use HostOf for the former.
func HostPrefixOf(raw string) (string, bool) {
	scheme, rest, ok := splitScheme(raw)
	if !ok || scheme == "" {
		return "", false
	}
	if i := strings.IndexAny(rest, "/?#"); i >= 0 {
		return "", false // authority is complete
	}
	host, _ := splitHostPort(rest)
	return strings.ToLower(host), true
}

// splitScheme splits "https://rest" into ("https", "rest", true). The
// scheme must be a non-empty run of letters, digits, '+', '-' or '.'
// starting with a letter.
func splitScheme(raw string) (scheme, rest string, ok bool) {
	i := strings.Index(raw, "://")
	if i <= 0 {
		return "", "", false
	}
	s := raw[:i]
	if !isAlpha(s[0]) {
		return "", "", false
	}
	for j := 1; j < len(s); j++ {
		c := s[j]
		if !isAlpha(c) && !isDigit(c) && c != '+' && c != '-' && c != '.' {
			return "", "", false
		}
	}
	return strings.ToLower(s), raw[i+3:], true
}

// splitAuthority splits the part after "://" into the authority and the
// remaining path/query/fragment tail (tail keeps its leading delimiter).
func splitAuthority(rest string) (authority, tail string) {
	if i := strings.IndexAny(rest, "/?#"); i >= 0 {
		return rest[:i], rest[i:]
	}
	return rest, ""
}

// splitHostPort strips an explicit ":port" suffix (digits only) from an
// authority; trailing colons are empty ports and go too. Userinfo is not
// modelled by the corpus and left alone.
func splitHostPort(authority string) (host, port string) {
	authority = strings.TrimRight(authority, ":")
	i := strings.LastIndexByte(authority, ':')
	if i < 0 {
		return authority, ""
	}
	p := authority[i+1:]
	for j := 0; j < len(p); j++ {
		if !isDigit(p[j]) {
			return authority, ""
		}
	}
	return authority[:i], p
}

func isAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
