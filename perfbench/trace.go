package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
type span struct {
	id, parent int64
	name       string
	start, end time.Duration // since the recorder's epoch
	bytes      int64         // payload bytes moved by the call, if any
	alloc      uint64        // heap bytes allocated during the call (replay only)
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps one traced job's spans in memory; they are written out
// when the run ends. All spans of a job share the recorder's trace id.
type recorder struct {
	trace string
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
	// inflight maps a request key ("<layer>/<package>") to the client-side
	// span waiting on it, so a server handler span can name its parent.
	inflight map[string]int64
}

func newRecorder(trace string) *recorder {
	return &recorder{trace: trace, epoch: time.Now(), inflight: map[string]int64{}}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// openSpan is a span that has started but not yet ended. The zero value,
// which a nil recorder hands out, records nothing.
type openSpan struct {
	rec        *recorder
	id, parent int64
	name       string
	start      time.Duration
}

// begin starts a span named name under parent. Safe on a nil recorder.
func (r *recorder) begin(name string, parent int64) openSpan {
	if r == nil {
		return openSpan{}
	}
	return openSpan{rec: r, id: r.next.Add(1), parent: parent, name: name, start: r.now()}
}

// end records the span as ending now.
func (o openSpan) end() { o.endWith(0, 0) }

// endWith records the span as ending now, with the payload bytes it moved
// and the heap bytes it allocated.
func (o openSpan) endWith(bytes int64, alloc uint64) {
	if o.rec == nil {
		return
	}
	o.rec.add(span{id: o.id, parent: o.parent, name: o.name, start: o.start, end: o.rec.now(), bytes: bytes, alloc: alloc})
}

// endAt records the span as ending at t (a phase that ended earlier).
func (o openSpan) endAt(t time.Duration) {
	if o.rec == nil {
		return
	}
	o.rec.add(span{id: o.id, parent: o.parent, name: o.name, start: o.start, end: t})
}

// enter registers a client call awaiting a response under key.
func (r *recorder) enter(key string, id int64) {
	r.mu.Lock()
	r.inflight[key] = id
	r.mu.Unlock()
}

func (r *recorder) leave(key string) {
	r.mu.Lock()
	delete(r.inflight, key)
	r.mu.Unlock()
}

// caller returns the client span waiting on key (0 if none).
func (r *recorder) caller(key string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inflight[key]
}

// named returns the spans with the given name.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes derives every span's self time: its duration minus the union
// of its children's intervals (clipped to its own).
func (r *recorder) selfTimes() map[int64]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(r.spans))
	for _, s := range r.spans {
		self[s.id] = s.dur() - covered(s, children[s.id])
	}
	return self
}

// covered is the length of the union of kids' intervals within s.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	curStart, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		a, b := max(k.start, s.start), min(k.end, s.end)
		if b <= a {
			continue
		}
		if a > curEnd {
			total += curEnd - curStart
			curStart, curEnd = a, b
			continue
		}
		curEnd = max(curEnd, b)
	}
	return total + curEnd - curStart
}

// spanLine is one span of the JSONL output.
type spanLine struct {
	Trace   string  `json:"trace"`
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`
	Bytes   int64   `json:"bytes,omitempty"`
	Alloc   uint64  `json:"alloc,omitempty"`
}

// writeJSONL writes the spans, in start order, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	self := r.selfTimes()
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, s := range spans {
		if err := enc.Encode(spanLine{
			Trace: r.trace, ID: s.id, Parent: s.parent, Name: s.name,
			StartUS: us(s.start), EndUS: us(s.end), SelfUS: us(self[s.id]),
			Bytes: s.bytes, Alloc: s.alloc,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durStats summarises a set of spans: count, summed seconds and duration
// quantiles in microseconds.
type durStats struct {
	n       int
	sumS    float64
	sorted  []float64 // durations, µs, ascending
	bytes   int64
	allocMB float64
}

func statsOf(spans []span) durStats {
	st := durStats{n: len(spans), sorted: make([]float64, len(spans))}
	for i, s := range spans {
		st.sumS += s.dur().Seconds()
		st.sorted[i] = float64(s.dur().Nanoseconds()) / 1e3
		st.bytes += s.bytes
		st.allocMB += float64(s.alloc) / (1 << 20)
	}
	sort.Float64s(st.sorted)
	return st
}

// quantile is the nearest-rank q-quantile of the durations, in µs.
func (st durStats) quantile(q float64) float64 {
	if st.n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(st.n))) - 1
	return st.sorted[max(i, 0)]
}

// perLayer lists every per-layer metric a traced run reports, with its
// unit. BENCHMARK.json's per_layer section lists the same names.
var perLayer = []struct{ name, unit string }{
	{"playstore.calls", "count"},
	{"playstore.busy_s", "s"},
	{"playstore.p50_us", "us"},
	{"playstore.p99_us", "us"},
	{"playstore.conns_per_call", "ratio"},
	{"playstore.serve_s", "s"},
	{"androzoo.calls", "count"},
	{"androzoo.busy_s", "s"},
	{"androzoo.p50_us", "us"},
	{"androzoo.p99_us", "us"},
	{"androzoo.conns_per_call", "ratio"},
	{"androzoo.serve_s", "s"},
	{"androzoo.mb", "MB"},
	{"pipeline.run_s", "s"},
	{"pipeline.self_s", "s"},
	{"pipeline.entries", "count"},
	{"pipeline.analyzed", "count"},
	{"pipeline.quarantined", "count"},
	{"pipeline.retries", "count"},
	{"pipeline.peak_inflight_kb", "KB"},
	{"pipeline.analyze_p50_us", "us"},
	{"pipeline.analyze_p99_us", "us"},
	{"apk.open_s", "s"},
	{"apk.open_mb", "MB"},
	{"apk.digest_s", "s"},
	{"decompiler.decompile_s", "s"},
	{"decompiler.decompile_mb", "MB"},
	{"javaparser.parse_s", "s"},
	{"javaparser.parse_mb", "MB"},
	{"callgraph.build_s", "s"},
	{"callgraph.build_mb", "MB"},
	{"callgraph.usage_s", "s"},
	{"callgraph.usage_mb", "MB"},
	{"webviewlint.analyze_s", "s"},
	{"webviewlint.analyze_mb", "MB"},
	{"urlextract.extract_s", "s"},
	{"urlextract.extract_mb", "MB"},
	{"resultcache.hit_rate", "ratio"},
	{"resultcache.loads", "count"},
	{"resultcache.load_s", "s"},
	{"resultcache.stores", "count"},
	{"resultcache.store_s", "s"},
	{"resultcache.blob_mb", "MB"},
	{"corpus.generate_s", "s"},
	{"corpus.build_s", "s"},
	{"report.render_s", "s"},
	{"core.classify_s", "s"},
	{"core.probe_s", "s"},
	{"measure.traces", "count"},
	{"crawler.run_s", "s"},
	{"crawler.visits", "count"},
	{"crawler.failures", "count"},
	{"crawler.account_resets", "count"},
	{"adb.commands", "count"},
	{"adb.post_p50_us", "us"},
	{"adb.click_p50_us", "us"},
	{"adb.click_p99_us", "us"},
	{"adb.pageload_p50_us", "us"},
	{"adb.netlog_p50_us", "us"},
	{"adb.cleanup_p50_us", "us"},
	{"jsvm.cache_hit_rate", "ratio"},
	{"jsvm.executes", "count"},
	{"trace.job_s", "s"},
	{"trace.plain_job_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}
