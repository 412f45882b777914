package faults

import (
	"bytes"
	"context"
	"io"
	"net/http"

	"repro/internal/playstore"
)

// APKRepository is the repository surface the pipeline consumes
// (structurally identical to pipeline.Repository, redeclared to avoid an
// import cycle with pipeline tests).
type APKRepository interface {
	List(ctx context.Context) ([]string, error)
	Download(ctx context.Context, pkg string) ([]byte, error)
}

// Repository injects faults in front of an APK repository. ErrorRate and
// LatencyRate apply to List and Download; TruncateRate and CorruptRate
// damage downloaded images in place — undetectably at this layer, so use
// them only to exercise broken-APK handling, not output-invariance runs
// (put payload damage in Transport instead, beneath the client's
// integrity checks).
type Repository struct {
	inner APKRepository
	in    *injector
}

// NewRepository wraps inner with the given fault configuration.
func NewRepository(inner APKRepository, cfg Config) *Repository {
	return &Repository{inner: inner, in: newInjector(cfg)}
}

// List implements the repository interface with injected faults.
func (r *Repository) List(ctx context.Context) ([]string, error) {
	if err := r.in.next("list", "snapshot").fail(ctx); err != nil {
		return nil, err
	}
	return r.inner.List(ctx)
}

// Download implements the repository interface with injected faults.
func (r *Repository) Download(ctx context.Context, pkg string) ([]byte, error) {
	d := r.in.next("download", pkg)
	if err := d.fail(ctx); err != nil {
		return nil, err
	}
	img, err := r.inner.Download(ctx, pkg)
	if err != nil {
		return nil, err
	}
	return d.corrupt(d.truncate(img)), nil
}

// Metadataer is the metadata surface the pipeline consumes.
type Metadataer interface {
	Metadata(ctx context.Context, pkg string) (playstore.Metadata, error)
}

// Batcher is a metadata service that also looks many apps up in one call
// (structurally pipeline.BatchMetadataSource).
type Batcher interface {
	Metadataer
	Lookup(ctx context.Context, pkgs []string) ([]*playstore.Metadata, error)
}

// MetadataSource injects transient errors and latency in front of a
// store-metadata service, one decision per Metadata call.
type MetadataSource struct {
	inner Metadataer
	in    *injector
}

// BatchMetadataSource is a MetadataSource over a Batcher. A Lookup is one
// request, so it draws one decision, keyed by its first package; a
// retried Lookup of the same chunk draws a fresh one.
type BatchMetadataSource struct {
	*MetadataSource
	batch Batcher
}

// NewMetadataSource wraps inner with the given fault configuration. The
// wrapper batches when inner does: over a Batcher it is a
// *BatchMetadataSource, so the faults land on the requests a batching
// pipeline makes; over any other source it is a *MetadataSource.
func NewMetadataSource(inner Metadataer, cfg Config) Metadataer {
	m := &MetadataSource{inner: inner, in: newInjector(cfg)}
	if b, ok := inner.(Batcher); ok {
		return &BatchMetadataSource{MetadataSource: m, batch: b}
	}
	return m
}

// Metadata implements the metadata interface with injected faults.
func (m *MetadataSource) Metadata(ctx context.Context, pkg string) (playstore.Metadata, error) {
	if err := m.in.next("metadata", pkg).fail(ctx); err != nil {
		return playstore.Metadata{}, err
	}
	return m.inner.Metadata(ctx, pkg)
}

// Lookup implements the batched lookup with injected faults.
func (b *BatchMetadataSource) Lookup(ctx context.Context, pkgs []string) ([]*playstore.Metadata, error) {
	if len(pkgs) > 0 {
		if err := b.in.next("metadata", pkgs[0]).fail(ctx); err != nil {
			return nil, err
		}
	}
	return b.batch.Lookup(ctx, pkgs)
}

// blobStore matches resultcache.BlobStore structurally.
type blobStore interface {
	Load(key string) ([]byte, bool, error)
	Store(key string, blob []byte) error
}

// Store injects faults in front of a result-cache blob store: ErrorRate
// fails loads, CorruptRate damages the first blob byte (guaranteed to
// break JSON decoding, so the cache detects it, purges the entry and
// recomputes — output stays correct), LatencyRate delays loads. Stores
// and deletes pass through untouched so recomputed entries persist.
type Store struct {
	inner blobStore
	in    *injector
}

// NewStore wraps inner with the given fault configuration.
func NewStore(inner blobStore, cfg Config) *Store {
	return &Store{inner: inner, in: newInjector(cfg)}
}

// Load implements resultcache.BlobStore with injected faults.
func (s *Store) Load(key string) ([]byte, bool, error) {
	d := s.in.next("load", key)
	d.delay(context.Background())
	if err := d.err(); err != nil {
		return nil, false, err
	}
	blob, ok, err := s.inner.Load(key)
	if err != nil || !ok {
		return blob, ok, err
	}
	if d.cfg.CorruptRate > 0 && d.uniform("corrupt") < d.cfg.CorruptRate && len(blob) > 0 {
		d.injected("corrupt")
		out := append([]byte(nil), blob...)
		out[0] ^= 0xff
		return out, true, nil
	}
	return blob, ok, nil
}

// Store implements resultcache.BlobStore; writes pass through.
func (s *Store) Store(key string, blob []byte) error { return s.inner.Store(key, blob) }

// Delete forwards to the inner store when it supports deletion, so the
// cache's purge-on-corrupt path works through the fault layer.
func (s *Store) Delete(key string) error {
	if d, ok := s.inner.(interface{ Delete(key string) error }); ok {
		return d.Delete(key)
	}
	return nil
}

// Transport injects payload damage beneath an HTTP client: TruncateRate
// cuts response bodies short of the advertised Content-Length and
// CorruptRate flips a body byte, both of which the androzoo client's
// length/digest verification detects and classifies as retryable. A
// retried request draws a fresh decision, so retries recover.
type Transport struct {
	inner http.RoundTripper
	in    *injector
}

// NewTransport wraps inner (nil means http.DefaultTransport).
func NewTransport(inner http.RoundTripper, cfg Config) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{inner: inner, in: newInjector(cfg)}
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(req)
	if err != nil || resp.Body == nil {
		return resp, err
	}
	d := t.in.next("roundtrip", req.URL.Path)
	wantTrunc := d.cfg.TruncateRate > 0 && d.uniform("truncate") < d.cfg.TruncateRate
	wantCorrupt := d.cfg.CorruptRate > 0 && d.uniform("corrupt") < d.cfg.CorruptRate
	if !wantTrunc && !wantCorrupt {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if wantTrunc {
		d.injected("truncate")
		body = d.truncateAlways(body)
	}
	if wantCorrupt && len(body) > 0 {
		d.injected("corrupt")
		body = append([]byte(nil), body...)
		body[int(d.uniform("corrupt-at")*float64(len(body)))%len(body)] ^= 0xff
	}
	// The headers (including Content-Length) still describe the original
	// payload: the damage is on the wire, exactly what a client-side
	// integrity check exists to catch.
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// truncateAlways cuts b unconditionally (the rate draw already passed).
func (d draw) truncateAlways(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	n := int(d.uniform("truncate-point") * float64(len(b)))
	if n >= len(b) {
		n = len(b) - 1
	}
	return b[:n]
}
