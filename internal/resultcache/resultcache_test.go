package resultcache

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
)

type result struct {
	Pkg     string
	Methods []string
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // promotes a over b
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b, the least recently used
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a = %d, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Errorf("c = %d, %v", v, ok)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPutRefreshesExistingKey(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not insert: nothing evicted
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("a = %d, want 10", v)
	}
}

func TestPersistentTierPromotion(t *testing.T) {
	store := NewMemStore()
	c1 := NewPersistent[result](10, store, nil)
	want := result{Pkg: "com.example", Methods: []string{"loadUrl", "postUrl"}}
	c1.Put("k", want)

	// A fresh cache over the same store — as after a process restart.
	c2 := NewPersistent[result](10, store, nil)
	got, ok := c2.Get("k")
	if !ok {
		t.Fatal("persistent tier missed")
	}
	if got.Pkg != want.Pkg || len(got.Methods) != 2 || got.Methods[0] != "loadUrl" {
		t.Errorf("got %+v", got)
	}
	st := c2.Stats()
	if st.StoreHits != 1 || st.MemHits != 0 {
		t.Errorf("first lookup stats = %+v", st)
	}
	// Promoted: the second lookup is a memory hit.
	if _, ok := c2.Get("k"); !ok {
		t.Fatal("promoted entry missed")
	}
	if st := c2.Stats(); st.MemHits != 1 {
		t.Errorf("post-promotion stats = %+v", st)
	}
}

func TestEvictionKeepsPersistentCopy(t *testing.T) {
	store := NewMemStore()
	c := NewPersistent[int](1, store, nil)
	c.Put("a", 1)
	c.Put("b", 2) // evicts a from the LRU only
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a not recovered from store: %d, %v", v, ok)
	}
}

func TestDirStoreRoundTrip(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "0a1b2c@fp/../weird key"
	if _, ok, err := store.Load(key); err != nil || ok {
		t.Fatalf("empty load = %v, %v", ok, err)
	}
	if err := store.Store(key, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	b, ok, err := store.Load(key)
	if err != nil || !ok || string(b) != `{"x":1}` {
		t.Fatalf("load = %q, %v, %v", b, ok, err)
	}

	c := NewPersistent[result](4, store, nil)
	c.Put("digest@fp", result{Pkg: "p"})
	c2 := NewPersistent[result](4, store, nil)
	if v, ok := c2.Get("digest@fp"); !ok || v.Pkg != "p" {
		t.Errorf("dir-backed roundtrip = %+v, %v", v, ok)
	}
}

type failingStore struct{ err error }

func (s failingStore) Load(string) ([]byte, bool, error) { return nil, false, s.err }
func (s failingStore) Store(string, []byte) error        { return s.err }

func TestStoreFailuresAreMisses(t *testing.T) {
	c := NewPersistent[int](4, failingStore{err: errors.New("disk on fire")}, nil)
	c.Put("k", 7)
	// Memory tier still works despite the failing store.
	if v, ok := c.Get("k"); !ok || v != 7 {
		t.Fatalf("mem tier broken: %d, %v", v, ok)
	}
	if _, ok := c.Get("other"); ok {
		t.Error("failing store produced a hit")
	}
	st := c.Stats()
	if st.Errors == 0 || st.Misses == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHitRate(t *testing.T) {
	c := New[int](4)
	if r := c.Stats().HitRate(); r != 0 {
		t.Errorf("empty hit rate = %v", r)
	}
	c.Put("a", 1)
	c.Get("a")
	c.Get("a")
	c.Get("missing")
	c.Get("missing")
	if r := c.Stats().HitRate(); r != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", r)
	}
	c.ResetStats()
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("reset stats = %+v", s)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewPersistent[int](32, NewMemStore(), nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%50)
				if v, ok := c.Get(key); ok && v != i%50 {
					t.Errorf("key %s = %d", key, v)
					return
				}
				c.Put(key, i%50)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 32 {
		t.Errorf("len = %d, want bound 32", c.Len())
	}
}

func TestCorruptDirStoreBlobIsPurgedAndRecomputed(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewPersistent[result](8, store, nil)
	warm.Put("k", result{Pkg: "com.app", Methods: []string{"loadUrl"}})

	// Smash the on-disk blob the way a crashed writer or bit rot would.
	if err := os.WriteFile(store.path("k"), []byte(`{"Pkg": truncat`), 0o644); err != nil {
		t.Fatal(err)
	}

	cold := NewPersistent[result](8, store, nil)
	if _, ok := cold.Get("k"); ok {
		t.Fatal("corrupt blob served as a hit")
	}
	st := cold.Stats()
	if st.Purged != 1 {
		t.Errorf("Purged = %d, want 1", st.Purged)
	}
	if _, err := os.Stat(store.path("k")); !os.IsNotExist(err) {
		t.Errorf("corrupt blob still on disk (stat err %v)", err)
	}
	// The recompute path stores cleanly and the next lookup hits.
	cold.Put("k", result{Pkg: "com.app", Methods: []string{"loadUrl"}})
	third := NewPersistent[result](8, store, nil)
	if v, ok := third.Get("k"); !ok || v.Pkg != "com.app" {
		t.Errorf("recomputed value not durable: %+v, %v", v, ok)
	}
}

// TestNullBlobIsPurged: a blob holding JSON null decodes to no value, so
// it is purged and recomputed like any corrupt blob instead of being
// served as a zero-value hit. An empty object is a value, the zero one.
func TestNullBlobIsPurged(t *testing.T) {
	for _, tc := range []struct {
		blob string
		hit  bool
	}{{"null", false}, {" null\n", false}, {"{}", true}} {
		store := NewMemStore()
		store.Store("k", []byte(tc.blob))
		c := NewPersistent[result](8, store, nil)
		v, ok := c.Get("k")
		if ok != tc.hit {
			t.Fatalf("%q: hit = %v (%+v), want %v", tc.blob, ok, v, tc.hit)
		}
		if tc.hit {
			if !reflect.DeepEqual(v, result{}) {
				t.Errorf("%q: value = %+v, want the zero value", tc.blob, v)
			}
			continue
		}
		if st := c.Stats(); st.Hits != 0 || st.Misses != 1 || st.Purged != 1 {
			t.Errorf("%q: stats = %+v, want one miss and one purge", tc.blob, st)
		}
		if _, found, _ := store.Load("k"); found {
			t.Errorf("%q: blob survived the purge", tc.blob)
		}
		want := result{Pkg: "com.app", Methods: []string{"loadUrl"}}
		c.Put("k", want)
		if got, ok := NewPersistent[result](8, store, nil).Get("k"); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: round trip after the purge = %+v, %v", tc.blob, got, ok)
		}
	}
}

func TestUnreadableBlobIsPurged(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewPersistent[result](8, store, nil)
	warm.Put("k", result{Pkg: "com.app"})
	// A directory where the blob file should be makes ReadFile error
	// without os.IsNotExist, exercising the Load-error purge path.
	if err := os.Remove(store.path("k")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(store.path("k"), 0o755); err != nil {
		t.Fatal(err)
	}
	cold := NewPersistent[result](8, store, nil)
	if _, ok := cold.Get("k"); ok {
		t.Fatal("unreadable blob served as a hit")
	}
	st := cold.Stats()
	if st.Errors == 0 {
		t.Error("Load error not counted")
	}
	if st.Purged != 1 {
		t.Errorf("Purged = %d, want 1", st.Purged)
	}
	cold.Put("k", result{Pkg: "com.app"})
	if v, ok := NewPersistent[result](8, store, nil).Get("k"); !ok || v.Pkg != "com.app" {
		t.Errorf("slot not reusable after purge: %+v, %v", v, ok)
	}
}

// deleterStore records Delete calls and can fail them.
type deleterStore struct {
	MemStore
	deleted   []string
	deleteErr error
}

func (s *deleterStore) Delete(key string) error {
	if s.deleteErr != nil {
		return s.deleteErr
	}
	s.deleted = append(s.deleted, key)
	return s.MemStore.Delete(key)
}

func TestCorruptMemBlobPurgeUsesDeleter(t *testing.T) {
	store := &deleterStore{MemStore: MemStore{m: map[string][]byte{"k": []byte("not json")}}}
	c := NewPersistent[result](8, store, nil)
	if _, ok := c.Get("k"); ok {
		t.Fatal("garbage blob served as a hit")
	}
	if len(store.deleted) != 1 || store.deleted[0] != "k" {
		t.Errorf("deleted = %v, want [k]", store.deleted)
	}
	if st := c.Stats(); st.Purged != 1 {
		t.Errorf("Purged = %d, want 1", st.Purged)
	}
}

func TestPurgeDeleteFailureCountsError(t *testing.T) {
	store := &deleterStore{
		MemStore:  MemStore{m: map[string][]byte{"k": []byte("not json")}},
		deleteErr: errors.New("store is read-only"),
	}
	c := NewPersistent[result](8, store, nil)
	if _, ok := c.Get("k"); ok {
		t.Fatal("garbage blob served as a hit")
	}
	st := c.Stats()
	if st.Purged != 0 {
		t.Errorf("Purged = %d, want 0 when Delete fails", st.Purged)
	}
	if st.Errors < 2 {
		t.Errorf("Errors = %d, want >= 2 (load fault + delete failure)", st.Errors)
	}
}

func TestMemStoreDelete(t *testing.T) {
	s := NewMemStore()
	s.Store("k", []byte("v"))
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Load("k"); ok {
		t.Error("blob survived Delete")
	}
	if err := s.Delete("absent"); err != nil {
		t.Errorf("deleting an absent key errored: %v", err)
	}
}

func TestDirStoreDeleteAbsentKey(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Delete("never-stored"); err != nil {
		t.Errorf("deleting an absent key errored: %v", err)
	}
}
