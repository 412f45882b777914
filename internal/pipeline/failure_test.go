package pipeline

import (
	"archive/zip"
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apk"
	"repro/internal/corpus"
	"repro/internal/playstore"
	"repro/internal/resultcache"
)

// flakyRepo wraps in-memory corpus data with injectable failures.
type flakyRepo struct {
	c *corpus.Corpus
	// failEveryNth makes every n-th download fail (0 = never).
	failEveryNth int64
	// failPkg's download always fails.
	failPkg string
	calls   atomic.Int64
	listErr error
}

func (r *flakyRepo) List(ctx context.Context) ([]string, error) {
	if r.listErr != nil {
		return nil, r.listErr
	}
	var out []string
	for _, s := range r.c.Apps {
		out = append(out, s.Package)
	}
	return out, nil
}

func (r *flakyRepo) Download(ctx context.Context, pkg string) ([]byte, error) {
	n := r.calls.Add(1)
	if r.failEveryNth > 0 && n%r.failEveryNth == 0 {
		return nil, fmt.Errorf("flaky: transient download failure for %s", pkg)
	}
	if pkg == r.failPkg {
		return nil, fmt.Errorf("flaky: %s is gone", pkg)
	}
	spec := r.c.AppByPackage(pkg)
	if spec == nil {
		return nil, fmt.Errorf("flaky: unknown %s", pkg)
	}
	return corpus.BuildAPK(spec)
}

// memMeta serves metadata straight from specs.
type memMeta struct {
	c       *corpus.Corpus
	failPkg string
}

func (m *memMeta) Metadata(ctx context.Context, pkg string) (playstore.Metadata, error) {
	if pkg == m.failPkg {
		return playstore.Metadata{}, fmt.Errorf("metadata backend exploded for %s", pkg)
	}
	spec := m.c.AppByPackage(pkg)
	if spec == nil || !spec.OnPlayStore {
		return playstore.Metadata{}, fmt.Errorf("%w: %s", playstore.ErrNotFound, pkg)
	}
	return playstore.Metadata{
		Package: spec.Package, Title: spec.Title, Category: spec.PlayCategory,
		Downloads: spec.Downloads, LastUpdated: spec.LastUpdated,
	}, nil
}

func failureCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{Seed: 3, Scale: 2500})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPipelineInMemoryBackends(t *testing.T) {
	c := failureCorpus(t)
	p := New(&flakyRepo{c: c}, &memMeta{c: c},
		Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff})
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Funnel.Analyzed != c.Counts.Analyzed {
		t.Errorf("analyzed = %d, want %d", res.Funnel.Analyzed, c.Counts.Analyzed)
	}
}

func TestPipelinePropagatesDownloadFailure(t *testing.T) {
	c := failureCorpus(t)
	p := New(&flakyRepo{c: c, failEveryNth: 5}, &memMeta{c: c},
		Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff, Workers: 3})
	_, err := p.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "transient download failure") {
		t.Errorf("err = %v, want transient download failure", err)
	}
}

func TestPipelinePropagatesListFailure(t *testing.T) {
	c := failureCorpus(t)
	p := New(&flakyRepo{c: c, listErr: errors.New("snapshot unavailable")}, &memMeta{c: c},
		Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff})
	if _, err := p.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "snapshot unavailable") {
		t.Errorf("err = %v", err)
	}
}

func TestPipelinePropagatesMetadataBackendFailure(t *testing.T) {
	c := failureCorpus(t)
	// Pick a real package so the failure hits mid-stream; ErrNotFound is
	// tolerated but other errors must abort.
	victim := c.Apps[len(c.Apps)/2].Package
	p := New(&flakyRepo{c: c}, &memMeta{c: c, failPkg: victim},
		Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff, Workers: 2})
	if _, err := p.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Errorf("err = %v", err)
	}
}

func TestPipelineContextTimeout(t *testing.T) {
	c := failureCorpus(t)
	p := New(&flakyRepo{c: c}, &slowMeta{c: c},
		Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Run(ctx); err == nil {
		t.Error("timed-out run succeeded")
	}
}

type slowMeta struct{ c *corpus.Corpus }

func (m *slowMeta) Metadata(ctx context.Context, pkg string) (playstore.Metadata, error) {
	select {
	case <-time.After(2 * time.Millisecond):
	case <-ctx.Done():
		return playstore.Metadata{}, ctx.Err()
	}
	return (&memMeta{c: m.c}).Metadata(ctx, pkg)
}

// The concurrent pipeline must be deterministic: two runs over the same
// corpus yield identical sorted per-app results regardless of worker
// scheduling.
func TestPipelineDeterministicUnderConcurrency(t *testing.T) {
	c := failureCorpus(t)
	run := func(workers int) *Result {
		p := New(&flakyRepo{c: c}, &memMeta{c: c},
			Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff, Workers: workers})
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(1)
	b := run(8)
	if len(a.Apps) != len(b.Apps) {
		t.Fatalf("app counts differ: %d vs %d", len(a.Apps), len(b.Apps))
	}
	for i := range a.Apps {
		x, y := a.Apps[i], b.Apps[i]
		if x.Package != y.Package || x.UsesWebView != y.UsesWebView || x.UsesCT != y.UsesCT ||
			len(x.WebViewSDKs) != len(y.WebViewSDKs) || len(x.Methods) != len(y.Methods) {
			t.Fatalf("app %d differs between worker counts:\n1: %+v\n8: %+v", i, x, y)
		}
	}
}

// TestDownloadInCountsQuarantinedDownloads pins the download stage's
// counters when a download is quarantined: every package that reaches the
// stage counts in In, and leaves as Out (a cache miss on to analysis), a
// cache hit or a quarantine; every package the metadata stage passes on
// either reaches the download stage or is replayed from the journal. A cold
// run, a journal resume and a warm-cache run each quarantine the same
// package.
func TestDownloadInCountsQuarantinedDownloads(t *testing.T) {
	c := failureCorpus(t)
	var victim string
	for _, s := range c.Apps {
		if s.OnPlayStore && s.Downloads >= corpus.MinDownloads && s.LastUpdated.After(corpus.UpdateCutoff) {
			victim = s.Package
			break
		}
	}
	cache := resultcache.New[Analysis](0)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	run := func(name string, cache *resultcache.Cache[Analysis], journal bool) Stats {
		t.Helper()
		cfg := Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
			Workers: 3, MaxFailureFrac: 0.5, Cache: cache}
		if journal {
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			cfg.Journal = j
		}
		res, err := New(&flakyRepo{c: c, failPkg: victim}, &memMeta{c: c}, cfg).Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Quarantined) != 1 || res.Quarantined[0].Package != victim || res.Quarantined[0].Stage != "download" {
			t.Fatalf("%s: quarantined %+v, want %s at download", name, res.Quarantined, victim)
		}
		st := res.Stats
		dl := st.Download
		if dl.In != dl.Out+st.CacheHits+dl.Quarantined {
			t.Errorf("%s: download in=%d, want out %d + cache hits %d + quarantined %d",
				name, dl.In, dl.Out, st.CacheHits, dl.Quarantined)
		}
		if st.Metadata.Out != dl.In+st.JournalSkips {
			t.Errorf("%s: metadata out=%d, want download in %d + journal skips %d",
				name, st.Metadata.Out, dl.In, st.JournalSkips)
		}
		return st
	}
	cold := run("cold", cache, true)
	resumed := run("resumed", nil, true)
	warm := run("warm", cache, false)
	if cold.Download.Out == 0 || resumed.JournalSkips == 0 || warm.CacheHits == 0 {
		t.Errorf("a run missed its path: cold out=%d, resumed journal skips=%d, warm cache hits=%d",
			cold.Download.Out, resumed.JournalSkips, warm.CacheHits)
	}
}

// bombRepo serves one package's image as an inflation bomb.
type bombRepo struct {
	*flakyRepo
	victim string
	bomb   []byte
}

func (r *bombRepo) Download(ctx context.Context, pkg string) ([]byte, error) {
	if pkg == r.victim {
		return r.bomb, nil
	}
	return r.flakyRepo.Download(ctx, pkg)
}

// TestInflationBombCountsBroken: a selected APK carrying a deflated asset
// that inflates past apk.MaxInflated is counted as broken, and the run
// analyses every other APK.
func TestInflationBombCountsBroken(t *testing.T) {
	c := failureCorpus(t)
	var victim *corpus.Spec
	for _, s := range c.Apps {
		if s.OnPlayStore && s.Downloads >= corpus.MinDownloads && s.LastUpdated.After(corpus.UpdateCutoff) && !s.Broken {
			victim = s
			break
		}
	}
	img, err := corpus.BuildAPK(victim)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, f := range zr.File {
		if err := zw.Copy(f); err != nil {
			t.Fatal(err)
		}
	}
	w, err := zw.CreateHeader(&zip.FileHeader{Name: "assets/zeros", Method: zip.Deflate})
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for range apk.MaxInflated >> 20 {
		w.Write(zeros)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := New(&bombRepo{flakyRepo: &flakyRepo{c: c}, victim: victim.Package, bomb: buf.Bytes()}, &memMeta{c: c},
		Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff}).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Funnel.Broken != c.Counts.Broken+1 || res.Funnel.Analyzed != c.Counts.Analyzed-1 || len(res.Quarantined) != 0 {
		t.Errorf("funnel %+v, quarantined %v; want %d broken and %d analysed",
			res.Funnel, res.Quarantined, c.Counts.Broken+1, c.Counts.Analyzed-1)
	}
}
