package faults

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/playstore"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

// memRepo is a trivial in-memory repository.
type memRepo struct{ imgs map[string][]byte }

func (r *memRepo) List(ctx context.Context) ([]string, error) {
	var out []string
	for k := range r.imgs {
		out = append(out, k)
	}
	return out, nil
}

func (r *memRepo) Download(ctx context.Context, pkg string) ([]byte, error) {
	img, ok := r.imgs[pkg]
	if !ok {
		return nil, errors.New("unknown")
	}
	return append([]byte(nil), img...), nil
}

func TestErrorRateApproximatesConfig(t *testing.T) {
	in := newInjector(Config{Seed: 1, ErrorRate: 0.1})
	fails := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if in.next("download", fmt.Sprintf("pkg%d", i)).err() != nil {
			fails++
		}
	}
	if fails < n/20 || fails > n/5 {
		t.Errorf("10%% error rate produced %d/%d failures", fails, n)
	}
}

func TestDecisionsDeterministicAcrossInjectors(t *testing.T) {
	outcomes := func() []bool {
		in := newInjector(Config{Seed: 42, ErrorRate: 0.3})
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, in.next("metadata", fmt.Sprintf("p%d", i%50)).err() != nil)
		}
		return out
	}
	a, b := outcomes(), outcomes()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs between identically seeded injectors", i)
		}
	}
}

func TestRetriesDrawFreshDecisions(t *testing.T) {
	// With a 50% error rate, some key must fail on attempt 1 and succeed
	// on a later attempt — the per-attempt counter decorrelates retries.
	in := newInjector(Config{Seed: 7, ErrorRate: 0.5})
	recovered := false
	for i := 0; i < 100 && !recovered; i++ {
		key := fmt.Sprintf("pkg%d", i)
		if in.next("download", key).err() == nil {
			continue // first attempt passed; irrelevant
		}
		for a := 0; a < 5; a++ {
			if in.next("download", key).err() == nil {
				recovered = true
				break
			}
		}
	}
	if !recovered {
		t.Error("no key recovered on retry at 50% error rate — attempts are not independent")
	}
}

func TestRepositoryFaultsAreTransient(t *testing.T) {
	repo := NewRepository(&memRepo{imgs: map[string][]byte{"a": []byte("x")}},
		Config{Seed: 3, ErrorRate: 1})
	_, err := repo.Download(context.Background(), "a")
	if err == nil {
		t.Fatal("100% error rate produced no error")
	}
	if !retry.IsRetryable(err) {
		t.Errorf("injected fault %v is not retryable", err)
	}
}

func TestRepositoryTruncateAndCorruptDamagePayload(t *testing.T) {
	img := bytes.Repeat([]byte("payload"), 100)
	base := &memRepo{imgs: map[string][]byte{"a": img}}
	trunc := NewRepository(base, Config{Seed: 3, TruncateRate: 1})
	got, err := trunc.Download(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(img) {
		t.Errorf("truncation left %d of %d bytes", len(got), len(img))
	}
	corr := NewRepository(base, Config{Seed: 3, CorruptRate: 1})
	got, err = corr.Download(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(img) || bytes.Equal(got, img) {
		t.Error("corruption did not flip a byte in place")
	}
}

func TestMetadataSourceInjectsLatency(t *testing.T) {
	inner := &fakeMeta{}
	m := NewMetadataSource(inner, Config{Seed: 1, LatencyRate: 1, Latency: 10 * time.Millisecond})
	start := time.Now()
	if _, err := m.Metadata(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Error("latency fault did not delay the call")
	}
	// A cancelled context cuts the delay short.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Metadata(ctx, "b"); err == nil {
		t.Error("cancelled context did not interrupt latency fault")
	}
}

type fakeMeta struct{}

func (fakeMeta) Metadata(ctx context.Context, pkg string) (playstore.Metadata, error) {
	return playstore.Metadata{Package: pkg}, nil
}

// fakeBatch is a batching metadata service that counts its lookups.
type fakeBatch struct {
	fakeMeta
	lookups int
}

func (f *fakeBatch) Lookup(ctx context.Context, pkgs []string) ([]*playstore.Metadata, error) {
	f.lookups++
	out := make([]*playstore.Metadata, len(pkgs))
	for i, pkg := range pkgs {
		out[i] = &playstore.Metadata{Package: pkg}
	}
	return out, nil
}

// TestMetadataSourceBatchesWhenItsSourceDoes: the wrapper of a per-package
// source offers no Lookup, and the wrapper of a batching one does, drawing
// one decision per request, the one a Metadata call for the request's
// first package would draw.
func TestMetadataSourceBatchesWhenItsSourceDoes(t *testing.T) {
	if _, ok := NewMetadataSource(fakeMeta{}, Config{}).(Batcher); ok {
		t.Error("the wrapper of a per-package source batches")
	}
	cfg := Config{Seed: 4, ErrorRate: 0.5}
	hub := telemetry.New(telemetry.Options{})
	inner := &fakeBatch{}
	batched := cfg
	batched.Telemetry = hub
	b, ok := NewMetadataSource(inner, batched).(Batcher)
	if !ok {
		t.Fatal("the wrapper of a batching source does not batch")
	}
	single := NewMetadataSource(fakeMeta{}, cfg)
	const requests = 40
	failed := 0
	for i := 0; i < requests; i++ {
		pkgs := make([]string, playstore.MaxBatch)
		for j := range pkgs {
			pkgs[j] = fmt.Sprintf("com.app%d.n%d", i, j)
		}
		mds, err := b.Lookup(context.Background(), pkgs)
		if err != nil {
			failed++
			if !retry.IsRetryable(err) {
				t.Errorf("injected fault %v is not retryable", err)
			}
		} else if len(mds) != len(pkgs) {
			t.Errorf("%d entries for %d names", len(mds), len(pkgs))
		}
		if _, serr := single.Metadata(context.Background(), pkgs[0]); (serr == nil) != (err == nil) {
			t.Errorf("request %d: Lookup drew %v, Metadata of its first package %v", i, err, serr)
		}
	}
	if failed == 0 || failed == requests {
		t.Fatalf("%d of %d requests failed: the draws must mix", failed, requests)
	}
	if got := hub.Counter("faults_injected_total", "", "class", "error").Value(); got != int64(failed) {
		t.Errorf("%d faults injected over %d failed requests, want one per request", got, failed)
	}
	if inner.lookups != requests-failed {
		t.Errorf("%d lookups reached the source, want the %d that drew no fault", inner.lookups, requests-failed)
	}
}

type memBlobs struct{ m map[string][]byte }

func (s *memBlobs) Load(key string) ([]byte, bool, error) { b, ok := s.m[key]; return b, ok, nil }
func (s *memBlobs) Store(key string, b []byte) error      { s.m[key] = b; return nil }
func (s *memBlobs) Delete(key string) error               { delete(s.m, key); return nil }

func TestStoreCorruptionBreaksFirstByte(t *testing.T) {
	inner := &memBlobs{m: map[string][]byte{"k": []byte(`{"a":1}`)}}
	s := NewStore(inner, Config{Seed: 5, CorruptRate: 1})
	blob, ok, err := s.Load("k")
	if err != nil || !ok {
		t.Fatalf("Load = %v, %v", ok, err)
	}
	if blob[0] == '{' {
		t.Error("corrupt load kept a valid JSON first byte")
	}
	if inner.m["k"][0] != '{' {
		t.Error("corruption mutated the underlying store")
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Load("k"); ok {
		t.Error("Delete did not reach the inner store")
	}
}

func TestTransportTruncationDetectableByLength(t *testing.T) {
	payload := bytes.Repeat([]byte("z"), 4096)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
		w.Write(payload)
	}))
	defer srv.Close()
	hc := srv.Client()
	hc.Transport = NewTransport(hc.Transport, Config{Seed: 2, TruncateRate: 1})
	resp, err := hc.Get(srv.URL + "/apk/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if int64(len(body)) == resp.ContentLength {
		t.Errorf("truncated body still matches Content-Length %d", resp.ContentLength)
	}
}

func TestTransportCorruptionDetectableByDigest(t *testing.T) {
	payload := bytes.Repeat([]byte("q"), 1024)
	sum := sha256.Sum256(payload)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Payload-Sha256", hex.EncodeToString(sum[:]))
		w.Write(payload)
	}))
	defer srv.Close()
	hc := srv.Client()
	hc.Transport = NewTransport(hc.Transport, Config{Seed: 2, CorruptRate: 1})
	resp, err := hc.Get(srv.URL + "/apk/y")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	got := sha256.Sum256(body)
	if hex.EncodeToString(got[:]) == resp.Header.Get("X-Payload-Sha256") {
		t.Error("corrupted body still matches the digest header")
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=7, err=0.1, latrate=0.05, lat=2ms, trunc=0.02, corrupt=0.03")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 7, ErrorRate: 0.1, LatencyRate: 0.05, Latency: 2 * time.Millisecond,
		TruncateRate: 0.02, CorruptRate: 0.03}
	if cfg != want {
		t.Errorf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if _, err := ParseSpec("err=2"); err == nil {
		t.Error("out-of-range rate accepted")
	}
	if _, err := ParseSpec("bogus=1"); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := ParseSpec("err"); err == nil {
		t.Error("malformed entry accepted")
	}
	if cfg, err := ParseSpec(""); err != nil || cfg != (Config{}) {
		t.Errorf("empty spec = %+v, %v", cfg, err)
	}
}
