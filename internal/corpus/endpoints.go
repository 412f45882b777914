package corpus

import (
	"fmt"
	"math/rand"

	"repro/internal/android"
	"repro/internal/dalvik"
)

// Endpoint ground truth. Each eligible app draws, from its own "urls"
// random stream (independent of the "static", "lint" and "obfuscate"
// streams so adding the URL-extraction study never perturbs any existing
// assignment), the set of network endpoints its first-party ApiClient
// class constructs. The APK builder turns each planted endpoint into real
// bytecode in one of four shapes of increasing difficulty; the extraction
// stage has to run its interprocedural dataflow to recover them all.

// endpointRate is the fraction of eligible apps whose first-party code
// builds java.net.URL endpoints directly (beyond whatever WebView / Custom
// Tabs URLs their planted usage code already carries).
const endpointRate = 0.45

// thirdPartyAPIHosts are backend hosts apps commonly talk to from
// first-party code (analytics uploads, graph APIs, push registration).
// Planted URLs alternate between these and the app's own api host, so the
// static↔dynamic agreement tables see both matching and static-only hosts.
var thirdPartyAPIHosts = []string{
	"api.segment.io",
	"graph.facebook.com",
	"events.appsflyer.com",
	"api.onesignal.com",
	"firebaselogging.googleapis.com",
	"cdn.branch.io",
}

// endpointVias orders the code shapes; the draw cycles so every shape
// appears corpus-wide at any scale.
var endpointVias = []string{"direct", "helper", "concat", "prefix"}

// assignEndpoints plants the app's URL ground truth. Broken APKs never
// parse and obfuscated apps hide their call surface behind reflection, so
// neither carries endpoints the extractor could be held to.
func assignEndpoints(s *Spec, seed int64) {
	if s.Broken || s.Obfuscated {
		return
	}
	rng := appRNG(seed, s.Package, "urls")
	defer rngPool.Put(rng)
	if rng.Float64() >= endpointRate {
		return
	}
	n := 1 + rng.Intn(3)
	cls := s.Package + ".net.ApiClient"
	first := rng.Intn(len(endpointVias))
	for i := 0; i < n; i++ {
		via := endpointVias[(first+i)%len(endpointVias)]
		host := "api." + appHost(s.Package)
		if rng.Float64() < 0.5 {
			host = thirdPartyAPIHosts[rng.Intn(len(thirdPartyAPIHosts))]
		}
		s.Endpoints = append(s.Endpoints, plantEndpoint(cls, via, host, i, rng))
	}
}

// plantEndpoint fixes one endpoint's record. URLs are generated already in
// normalized form (lowercase, no default port), so the extractor's output
// must match the planted string byte for byte.
func plantEndpoint(cls, via, host string, i int, rng *rand.Rand) PlantedEndpoint {
	ep := PlantedEndpoint{
		Kind:   "full",
		Class:  cls,
		Method: fmt.Sprintf("open%d", i),
		API:    "URL.<init>",
		Via:    via,
	}
	switch via {
	case "direct":
		ep.URL = fmt.Sprintf("https://%s/v%d/config", host, 1+rng.Intn(3))
	case "helper":
		// The sink lives in the helper; the caller's constant grounds it
		// there, so the ground truth points at the helper method.
		ep.Method = fmt.Sprintf("fetch%d", i)
		ep.URL = fmt.Sprintf("https://%s/ingest/%d", host, rng.Intn(10))
	case "concat":
		ep.URL = fmt.Sprintf("https://%s/assets/", host) + fmt.Sprintf("bundle%d.js", i)
	case "prefix":
		// The tail is caller-supplied; only the constant prefix is
		// statically recoverable.
		ep.Kind = "prefix"
		ep.Method = fmt.Sprintf("track%d", i)
		ep.URL = fmt.Sprintf("https://%s/e/%d?id=", host, rng.Intn(10))
	}
	return ep
}

// buildEndpointClasses emits the first-party networking class carrying the
// planted endpoints. Every sink is a java.net.URL constructor reached from
// ApiClient.init (which MainActivity.onCreate invokes), so the endpoints
// sit behind real call-graph edges; none of the methods touch WebView APIs,
// leaving the usage analysis and the lint stage unaffected.
func buildEndpointClasses(b *dalvik.Builder, s *Spec) {
	if len(s.Endpoints) == 0 {
		return
	}
	cls := b.Class(s.Package+".net.ApiClient", android.ObjectClass, dalvik.AccPublic|dalvik.AccFinal).
		Source("ApiClient.java")
	acc := dalvik.AccPublic | dalvik.AccStatic
	var initBody []dalvik.Instruction
	for i, ep := range s.Endpoints {
		open := fmt.Sprintf("open%d", i)
		initBody = append(initBody, dalvik.InvokeStatic(s.Package+".net.ApiClient", open, "()void"))
		switch ep.Via {
		case "direct":
			cls.Method(open, "()void", acc,
				dalvik.ConstString(ep.URL),
				dalvik.NewInstance("java.net.URL"),
				dalvik.InvokeDirect("java.net.URL", "<init>", "(String)void"),
				dalvik.Return(),
			)
		case "helper":
			// The URL constant crosses a static call; the extractor's
			// parameter-passthrough summary must carry it into the helper.
			cls.Method(open, "()void", acc,
				dalvik.ConstString(ep.URL),
				dalvik.InvokeStatic(s.Package+".net.ApiClient", ep.Method, "(String)void"),
				dalvik.Return(),
			).Method(ep.Method, "(String)void", acc,
				dalvik.NewInstance("java.net.URL"),
				dalvik.InvokeDirect("java.net.URL", "<init>", "(String)void"),
				dalvik.Return(),
			)
		case "concat":
			// StringBuilder assembles the URL from two constants; only the
			// abstract concat model recovers the full string.
			pre := ep.URL[:len(ep.URL)-len(fmt.Sprintf("bundle%d.js", i))]
			suf := ep.URL[len(pre):]
			cls.Method(open, "()void", acc,
				dalvik.NewInstance("java.lang.StringBuilder"),
				dalvik.InvokeDirect("java.lang.StringBuilder", "<init>", "()void"),
				dalvik.ConstString(pre),
				dalvik.InvokeVirtual("java.lang.StringBuilder", "append", "(String)StringBuilder"),
				dalvik.Instruction{Op: dalvik.OpMoveResult},
				dalvik.ConstString(suf),
				dalvik.InvokeVirtual("java.lang.StringBuilder", "append", "(String)StringBuilder"),
				dalvik.Instruction{Op: dalvik.OpMoveResult},
				dalvik.InvokeVirtual("java.lang.StringBuilder", "toString", "()String"),
				dalvik.Instruction{Op: dalvik.OpMoveResult},
				dalvik.NewInstance("java.net.URL"),
				dalvik.InvokeDirect("java.net.URL", "<init>", "(String)void"),
				dalvik.Return(),
			)
		case "prefix":
			// The second append has nothing on the operand stack, so it
			// consumes the method's own parameter — a caller-supplied tail
			// the extractor can only report as a partial prefix.
			cls.Method(open, "()void", acc,
				dalvik.InvokeStatic(s.Package+".net.ApiClient", ep.Method, "(String)void"),
				dalvik.Return(),
			).Method(ep.Method, "(String)void", acc,
				dalvik.NewInstance("java.lang.StringBuilder"),
				dalvik.InvokeDirect("java.lang.StringBuilder", "<init>", "()void"),
				dalvik.ConstString(ep.URL),
				dalvik.InvokeVirtual("java.lang.StringBuilder", "append", "(String)StringBuilder"),
				dalvik.InvokeVirtual("java.lang.StringBuilder", "append", "(String)StringBuilder"),
				dalvik.InvokeVirtual("java.lang.StringBuilder", "toString", "()String"),
				dalvik.Instruction{Op: dalvik.OpMoveResult},
				dalvik.NewInstance("java.net.URL"),
				dalvik.InvokeDirect("java.net.URL", "<init>", "(String)void"),
				dalvik.Return(),
			)
		}
	}
	initBody = append(initBody, dalvik.Return())
	cls.Method("init", "()void", acc, initBody...)
}
