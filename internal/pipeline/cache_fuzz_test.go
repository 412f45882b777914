package pipeline

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/resultcache"
)

// FuzzCacheBlob serves arbitrary bytes from the persistent tier as the
// blob of one cached analysis and looks the key up twice. Nothing may
// panic. A hit must come from a blob that is a JSON object, and its value
// must re-encode to a blob that decodes deep-equal (normalised, as a
// pipeline worker writes it). A miss must purge the blob, once, and leave
// the key absent. Every lookup is a hit or a miss. The checked-in seeds
// are a corpus analysis with lint findings and endpoints, null, {}, a
// truncated blob and [].
func FuzzCacheBlob(f *testing.F) {
	codec := resultcache.JSONCodec[Analysis]{}
	f.Fuzz(func(t *testing.T, blob []byte) {
		store := resultcache.NewMemStore()
		if err := store.Store("k", blob); err != nil {
			t.Fatal(err)
		}
		c := resultcache.NewPersistent[Analysis](0, store, nil)
		an, hit := c.Get("k")
		again, hitAgain := c.Get("k")
		st := c.Stats()
		if st.Hits+st.Misses != 2 {
			t.Fatalf("2 lookups counted %d hits and %d misses", st.Hits, st.Misses)
		}
		if !hit {
			if hitAgain || st.Purged != 1 {
				t.Fatalf("a miss on %q: second lookup hit %v, %d purges; want a miss and 1", blob, hitAgain, st.Purged)
			}
			if _, found, _ := store.Load("k"); found {
				t.Fatalf("a miss on %q left the blob in the store", blob)
			}
			return
		}
		if trimmed := bytes.TrimLeft(blob, " \t\r\n"); len(trimmed) == 0 || trimmed[0] != '{' {
			t.Fatalf("%q, not a JSON object, was served as a hit: %+v", blob, an)
		}
		if !hitAgain || st.Purged != 0 || !reflect.DeepEqual(an, again) {
			t.Fatalf("a hit on %q: second lookup %v with %+v, %d purges", blob, hitAgain, again, st.Purged)
		}
		enc, err := codec.Marshal(an)
		if err != nil {
			t.Fatalf("re-encoding a hit: %v", err)
		}
		back, err := codec.Unmarshal(enc)
		if err != nil {
			t.Fatalf("decoding the re-encoded %s: %v", enc, err)
		}
		an.normalize()
		back.normalize()
		if !reflect.DeepEqual(an, back) {
			t.Fatalf("%q re-encodes as %s, which decodes to\n%+v\nnot\n%+v", blob, enc, back, an)
		}
	})
}
