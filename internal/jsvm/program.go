package jsvm

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Program is a parsed script ready for repeated execution. A Program is
// immutable after Compile: the interpreter never mutates AST nodes, so one
// Program may be executed concurrently by any number of VMs (one VM per
// goroutine — the VM itself is not goroutine-safe). This is what lets the
// parallel crawl parse each injected script once and run it on every
// (app, site) visit.
type Program struct {
	src string
	// main is the bytecode form (compile.go).
	main *funcProto
}

// Src returns the source the program was compiled from.
func (p *Program) Src() string { return p.src }

// Compile parses src and lowers it to bytecode.
func Compile(src string) (*Program, error) {
	body, err := parseProgram(src)
	if err != nil {
		return nil, err
	}
	p := &Program{src: src}
	if p.main, err = compileProgram(body); err != nil {
		return nil, err
	}
	compileCounter.Load().Inc()
	return p, nil
}

// Cache is a content-keyed program cache: identical sources parse once and
// share one immutable Program. It is safe for concurrent use, so worker
// VMs executing the same injected scripts (the measurement page's payloads
// are byte-identical across all visits) all hit the same entry.
type Cache struct {
	mu sync.RWMutex
	m  map[string]*Program
	// pending holds the compiles in flight: a concurrent first sight of
	// the same source waits for the one compile instead of starting its
	// own, so each distinct source compiles exactly once.
	pending map[string]*pendingCompile
	hits    atomic.Uint64
	misses  atomic.Uint64
	// hitC/missC mirror the counters into a telemetry registry; nil (the
	// default) is a no-op. The split is deterministic under concurrency:
	// a lookup that waits on a pending compile counts a hit, so misses
	// always equals the number of distinct sources.
	hitC, missC *telemetry.Counter
}

// pendingCompile is one compile in flight; done closes once p and err are
// set.
type pendingCompile struct {
	done chan struct{}
	p    *Program
	err  error
}

// Instrument mirrors the cache's hit/miss traffic into telemetry counters.
// Call before the cache is shared across goroutines.
func (c *Cache) Instrument(hits, misses *telemetry.Counter) {
	c.mu.Lock()
	c.hitC, c.missC = hits, misses
	c.mu.Unlock()
}

// NewCache returns an empty program cache.
func NewCache() *Cache {
	return &Cache{m: make(map[string]*Program), pending: make(map[string]*pendingCompile)}
}

// cacheKeyVersion prefixes cache keys with the bytecode format
// generation. Bumping it on instruction-set changes guarantees entries
// persisted or shared by an older binary never alias a newer program
// (the NUL cannot occur at that position in a raw source key).
const cacheKeyVersion = "jsvm-bc1\x00"

// Compile returns the cached Program for src, parsing and storing it on
// first sight. Concurrent first sights share one compile. Parse failures
// are returned (to every waiter) but never cached.
func (c *Cache) Compile(src string) (*Program, error) {
	key := cacheKeyVersion + src
	c.mu.RLock()
	p, ok := c.m[key]
	hitC := c.hitC
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		hitC.Inc()
		return p, nil
	}
	c.mu.Lock()
	if p, ok := c.m[key]; ok { // stored since the read above
		c.mu.Unlock()
		c.hits.Add(1)
		hitC.Inc()
		return p, nil
	}
	if pc, ok := c.pending[key]; ok {
		c.mu.Unlock()
		<-pc.done
		if pc.err != nil {
			return nil, pc.err
		}
		c.hits.Add(1)
		hitC.Inc()
		return pc.p, nil
	}
	pc := &pendingCompile{done: make(chan struct{})}
	c.pending[key] = pc
	c.mu.Unlock()

	pc.p, pc.err = Compile(src)
	c.mu.Lock()
	delete(c.pending, key)
	if pc.err == nil {
		c.m[key] = pc.p
		c.misses.Add(1)
		c.missC.Inc()
	}
	c.mu.Unlock()
	close(pc.done)
	return pc.p, pc.err
}

// Len reports the number of cached programs.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Stats reports cache hits and misses since creation.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// defaultCache backs CompileCached: one process-wide parse per distinct
// script source.
var defaultCache = NewCache()

// CompileCached compiles src through the process-wide program cache. The
// browser simulation routes page scripts and injected scripts through this,
// so a crawl parses each distinct script exactly once no matter how many
// visits, on however many workers, execute it.
func CompileCached(src string) (*Program, error) {
	return defaultCache.Compile(src)
}

// DefaultCacheStats exposes the process-wide cache counters (for stats
// lines and tests).
func DefaultCacheStats() (hits, misses uint64) { return defaultCache.Stats() }

// stepBudgetCounter counts scripts halted by the step budget; set through
// Instrument, read lock-free on the (rare) exhaustion path. The remaining
// counters instrument the bytecode engine: programs lowered to bytecode,
// program executions, and inline-cache traffic. All are deterministic
// functions of the executed workload, so same-seed runs stay
// byte-identical.
var (
	stepBudgetCounter atomic.Pointer[telemetry.Counter]
	compileCounter    atomic.Pointer[telemetry.Counter]
	executeCounter    atomic.Pointer[telemetry.Counter]
	icHitCounter      atomic.Pointer[telemetry.Counter]
	icMissCounter     atomic.Pointer[telemetry.Counter]
)

// Instrument wires the package's process-wide observability into hub: the
// default program cache's hit/miss traffic
// (jsvm_program_cache_total{result}), the count of scripts killed by the
// step budget (jsvm_step_budget_exhausted_total), bytecode compilations
// (jsvm_bytecode_compile_total), program executions
// (jsvm_execute_total) and inline-cache traffic
// (jsvm_inline_cache_total{result}).
func Instrument(hub *telemetry.Hub) {
	defaultCache.Instrument(
		hub.Counter("jsvm_program_cache_total", "program-cache lookups by result", "result", "hit"),
		hub.Counter("jsvm_program_cache_total", "program-cache lookups by result", "result", "miss"),
	)
	stepBudgetCounter.Store(hub.Counter("jsvm_step_budget_exhausted_total", "scripts halted by the interpreter step budget"))
	compileCounter.Store(hub.Counter("jsvm_bytecode_compile_total", "programs lowered to bytecode"))
	executeCounter.Store(hub.Counter("jsvm_execute_total", "program executions"))
	icHitCounter.Store(hub.Counter("jsvm_inline_cache_total", "bytecode inline-cache lookups by result", "result", "hit"))
	icMissCounter.Store(hub.Counter("jsvm_inline_cache_total", "bytecode inline-cache lookups by result", "result", "miss"))
}
