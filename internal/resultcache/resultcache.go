// Package resultcache is a content-addressed cache for expensive analysis
// results. Keys are content digests (the pipeline uses the APK signing
// digest plus an SDK-index fingerprint), so a cached value is valid for as
// long as the bytes it was computed from exist anywhere — across runs,
// snapshots and machines.
//
// The cache is two-tiered: a bounded in-memory LRU tier answers hot
// lookups without decoding, and an optional persistent BlobStore tier
// (e.g. a directory of files) survives process restarts. Values found only
// in the persistent tier are decoded and promoted into the LRU. Eviction
// from the LRU never removes the persistent copy, so the memory bound and
// the durable corpus size are independent.
package resultcache

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"sync"

	"repro/internal/telemetry"
)

// BlobStore is the persistent tier: a durable key → blob map. Implementations
// must be safe for concurrent use.
type BlobStore interface {
	// Load returns the blob for key, reporting whether it exists.
	Load(key string) ([]byte, bool, error)
	// Store durably writes the blob for key.
	Store(key string, blob []byte) error
}

// BlobDeleter is implemented by stores that can remove a blob. When the
// persistent tier returns a corrupt or unreadable blob, the cache purges
// it through this interface so the entry becomes an honest miss — the
// value is recomputed and re-stored — instead of a permanent error.
type BlobDeleter interface {
	// Delete removes the blob for key; deleting an absent key is a no-op.
	Delete(key string) error
}

// Codec converts cached values to and from persistent blobs.
type Codec[V any] interface {
	Marshal(v V) ([]byte, error)
	Unmarshal(blob []byte) (V, error)
}

// JSONCodec persists values as JSON.
type JSONCodec[V any] struct{}

// Marshal encodes v as JSON.
func (JSONCodec[V]) Marshal(v V) ([]byte, error) { return json.Marshal(v) }

// errNullBlob reports a blob whose top-level value is null.
var errNullBlob = errors.New("resultcache: blob is null")

// Unmarshal decodes a JSON blob. It refuses a top-level null, which
// encoding/json would decode as a no-op: the zero value would then be
// served as a hit. For a struct V, the pipeline's case, a blob decodes
// only when it is a JSON object; {} still decodes, as the zero value it
// encodes.
func (JSONCodec[V]) Unmarshal(blob []byte) (V, error) {
	var v V
	if string(bytes.Trim(blob, " \t\r\n")) == "null" {
		return v, errNullBlob
	}
	err := json.Unmarshal(blob, &v)
	return v, err
}

// Stats counts cache traffic. Hits = MemHits + StoreHits.
type Stats struct {
	Hits      uint64
	Misses    uint64
	MemHits   uint64 // answered by the LRU tier
	StoreHits uint64 // answered by the persistent tier (and promoted)
	Evictions uint64 // LRU entries dropped to respect MaxEntries
	Errors    uint64 // persistent-tier failures (treated as misses)
	Purged    uint64 // corrupt/undecodable persistent blobs deleted on read
	Entries   int    // current LRU population
}

// Hooks mirrors cache traffic into telemetry counters as it happens, so a
// live /metrics scrape sees the same numbers Stats reports at the end.
// Every field is optional: nil counters are no-ops, so a zero Hooks is
// valid (and is the default).
type Hooks struct {
	Hits      *telemetry.Counter
	Misses    *telemetry.Counter
	MemHits   *telemetry.Counter
	StoreHits *telemetry.Counter
	Evictions *telemetry.Counter
	Errors    *telemetry.Counter
	Purged    *telemetry.Counter
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry[V any] struct {
	key string
	val V
}

// Cache is the two-tier content-addressed cache. The zero value is not
// usable; construct with New or NewPersistent.
type Cache[V any] struct {
	mu         sync.Mutex
	maxEntries int
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
	store      BlobStore
	codec      Codec[V]
	stats      Stats
	hooks      Hooks
}

// SetHooks installs telemetry mirrors for the traffic counters. Call
// before sharing the cache across goroutines.
func (c *Cache[V]) SetHooks(h Hooks) {
	c.mu.Lock()
	c.hooks = h
	c.mu.Unlock()
}

// New returns a memory-only cache holding at most maxEntries values
// (<= 0 means unbounded).
func New[V any](maxEntries int) *Cache[V] {
	return &Cache[V]{
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// NewPersistent returns a cache backed by a durable BlobStore tier. A nil
// codec defaults to JSON.
func NewPersistent[V any](maxEntries int, store BlobStore, codec Codec[V]) *Cache[V] {
	c := New[V](maxEntries)
	c.store = store
	if codec == nil {
		codec = JSONCodec[V]{}
	}
	c.codec = codec
	return c
}

// Get returns the cached value for key. A persistent-tier hit decodes the
// blob and promotes it into the LRU tier.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		c.stats.MemHits++
		c.hooks.Hits.Inc()
		c.hooks.MemHits.Inc()
		v := el.Value.(*entry[V]).val
		c.mu.Unlock()
		return v, true
	}
	store := c.store
	c.mu.Unlock()

	var zero V
	if store == nil {
		c.miss()
		return zero, false
	}
	// The persistent tier is consulted outside the lock: Load may touch a
	// disk or the network, and concurrent lookups of different keys must
	// not serialise on it.
	blob, ok, err := store.Load(key)
	if err != nil {
		// An unreadable blob must not keep failing every future lookup:
		// purge it so the recomputed value can be stored cleanly.
		c.purge(store, key)
		return zero, false
	}
	if !ok {
		c.miss()
		return zero, false
	}
	v, err := c.codec.Unmarshal(blob)
	if err != nil {
		// Corrupt on disk — same treatment: a miss, not a poison pill.
		c.purge(store, key)
		return zero, false
	}
	c.mu.Lock()
	c.stats.Hits++
	c.stats.StoreHits++
	c.hooks.Hits.Inc()
	c.hooks.StoreHits.Inc()
	c.insertLocked(key, v)
	c.mu.Unlock()
	return v, true
}

// Put inserts or refreshes the value for key in both tiers.
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	c.insertLocked(key, v)
	store := c.store
	c.mu.Unlock()
	if store == nil {
		return
	}
	blob, err := c.codec.Marshal(v)
	if err == nil {
		err = store.Store(key, blob)
	}
	if err != nil {
		c.mu.Lock()
		c.stats.Errors++
		c.hooks.Errors.Inc()
		c.mu.Unlock()
	}
}

func (c *Cache[V]) insertLocked(key string, v V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: v})
	for c.maxEntries > 0 && c.ll.Len() > c.maxEntries {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry[V]).key)
		c.stats.Evictions++
		c.hooks.Evictions.Inc()
	}
}

func (c *Cache[V]) miss() {
	c.mu.Lock()
	c.stats.Misses++
	c.hooks.Misses.Inc()
	c.mu.Unlock()
}

func (c *Cache[V]) fault() {
	c.mu.Lock()
	c.stats.Misses++
	c.stats.Errors++
	c.hooks.Misses.Inc()
	c.hooks.Errors.Inc()
	c.mu.Unlock()
}

// purge counts a persistent-tier fault and, when the store supports
// deletion, removes the offending blob so the slot is clean for the
// recompute's Put.
func (c *Cache[V]) purge(store BlobStore, key string) {
	c.fault()
	d, ok := store.(BlobDeleter)
	if !ok {
		return
	}
	if err := d.Delete(key); err != nil {
		c.mu.Lock()
		c.stats.Errors++
		c.hooks.Errors.Inc()
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	c.stats.Purged++
	c.hooks.Purged.Inc()
	c.mu.Unlock()
}

// Len reports the LRU tier's population.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}

// ResetStats zeroes the traffic counters (population is unaffected), so
// callers can attribute hit rates to one run at a time.
func (c *Cache[V]) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}
