package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer records lightweight spans grouped into traces — one trace per
// unit of work whose path through the system should be reconstructable
// (one APK through download→cache→analyze→lint→urls, one crawl
// visit through lane→device→pageload→netlog). Spans within a trace are
// appended in the order the work happened, which the pipeline's hand-off
// discipline makes sequential per item, so exported traces are
// deterministic whenever the Timing source is.
type Tracer struct {
	timing Timing
	epoch  int64

	mu     sync.Mutex
	traces map[string]*Trace
}

// NewTracer returns an empty tracer drawing durations from timing (nil
// means RealTiming).
func NewTracer(timing Timing) *Tracer {
	if timing == nil {
		timing = RealTiming{}
	}
	return &Tracer{timing: timing, epoch: timing.Start(), traces: make(map[string]*Trace)}
}

// Trace returns the trace with the given id, creating it on first use.
// Safe on a nil tracer (returns a nil, no-op trace).
func (t *Tracer) Trace(id string) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.traces[id]
	if tr == nil {
		tr = &Trace{tracer: t, id: id}
		t.traces[id] = tr
	}
	return tr
}

// Len reports the number of traces recorded.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

// Trace is one unit of work's span collection. A nil *Trace is a no-op.
type Trace struct {
	tracer *Tracer
	id     string

	mu    sync.Mutex
	spans []spanRecord
	next  int           // next span sequence number
	clock time.Duration // deterministic mode: cumulative start offset
}

type spanRecord struct {
	name    string
	parent  string
	seq     int
	startUS int64
	durUS   int64
	attrs   map[string]string
}

// Span is one in-flight operation within a trace. A nil *Span is a no-op.
type Span struct {
	trace  *Trace
	name   string
	parent string
	seq    int
	stamp  int64
	attrs  map[string]string
	done   bool
}

// Start begins a root-level span. attrs are key/value pairs attached to
// the span at creation.
func (tr *Trace) Start(name string, attrs ...string) *Span {
	return tr.start(name, "", attrs)
}

// Child begins a span parented under the named span.
func (tr *Trace) Child(parent, name string, attrs ...string) *Span {
	return tr.start(name, parent, attrs)
}

func (tr *Trace) start(name, parent string, attrs []string) *Span {
	if tr == nil {
		return nil
	}
	sp := &Span{trace: tr, name: name, parent: parent}
	if len(attrs) > 0 {
		sp.attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			sp.attrs[attrs[i]] = attrs[i+1]
		}
	}
	tr.mu.Lock()
	sp.seq = tr.next
	tr.next++
	tr.mu.Unlock()
	sp.stamp = tr.tracer.timing.Start()
	return sp
}

// SetAttr attaches (or overwrites) one attribute on an unfinished span.
func (sp *Span) SetAttr(k, v string) {
	if sp == nil || sp.done {
		return
	}
	if sp.attrs == nil {
		sp.attrs = make(map[string]string, 2)
	}
	sp.attrs[k] = v
}

// End finishes the span, records it into the trace, and returns its
// duration (so callers can Observe it into a histogram). Ending twice or
// ending a nil span is a no-op returning 0.
func (sp *Span) End() time.Duration {
	if sp == nil || sp.done {
		return 0
	}
	sp.done = true
	tr := sp.trace
	timing := tr.tracer.timing
	d := timing.Since(sp.stamp, tr.id, sp.name, sp.seq)
	rec := spanRecord{name: sp.name, parent: sp.parent, seq: sp.seq, durUS: d.Microseconds(), attrs: sp.attrs}
	tr.mu.Lock()
	if timing.Deterministic() {
		// Logical time: spans within a trace abut, so a trace reads as a
		// contiguous timeline however the run was scheduled.
		rec.startUS = tr.clock.Microseconds()
		tr.clock += d
	} else {
		rec.startUS = (sp.stamp - tr.tracer.epoch) / int64(time.Microsecond)
	}
	tr.spans = append(tr.spans, rec)
	tr.mu.Unlock()
	return d
}

// SpanLine is the exported JSONL line for one span — the wire schema the
// trace endpoints speak and fleet workers submit. Field order is the
// schema; attrs marshal with sorted keys, so output is byte-stable.
type SpanLine struct {
	Trace   string            `json:"trace"`
	Span    string            `json:"span"`
	Parent  string            `json:"parent,omitempty"`
	Seq     int               `json:"seq"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// WriteJSONL exports every finished span, one JSON object per line:
// traces in sorted id order, spans in completion order within each trace.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return encodeLines(w, t.SpansSince(nil))
}

// Mark snapshots how many spans each trace currently holds. Pair with
// SpansSince to export only the spans one bounded stretch of work (a
// leased partition) appended to a long-lived tracer.
func (t *Tracer) Mark() map[string]int {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	mark := make(map[string]int, len(t.traces))
	for id, tr := range t.traces {
		tr.mu.Lock()
		mark[id] = len(tr.spans)
		tr.mu.Unlock()
	}
	return mark
}

// SpansSince returns every finished span appended after mark (all spans
// when mark is nil) in WriteJSONL's order: traces sorted by id, spans in
// completion order within each trace.
func (t *Tracer) SpansSince(mark map[string]int) []SpanLine {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ids := make([]string, 0, len(t.traces))
	for id := range t.traces {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	traces := make([]*Trace, len(ids))
	for i, id := range ids {
		traces[i] = t.traces[id]
	}
	t.mu.Unlock()

	var lines []SpanLine
	for i, tr := range traces {
		tr.mu.Lock()
		for _, rec := range tr.spans[min(mark[ids[i]], len(tr.spans)):] {
			lines = append(lines, SpanLine{
				Trace: ids[i], Span: rec.name, Parent: rec.parent,
				Seq: rec.seq, StartUS: rec.startUS, DurUS: rec.durUS, Attrs: rec.attrs,
			})
		}
		tr.mu.Unlock()
	}
	return lines
}

// WriteTraceJSONL stitches span lines gathered from many processes into
// one export: traces sorted by id, each trace's spans in the order they
// arrived, one JSON object per line. Every per-APK trace is recorded by
// one process and arrives in completion order, so a stitched fleet trace
// has the layout WriteJSONL gives the same traces in one process.
func WriteTraceJSONL(w io.Writer, lines []SpanLine) error {
	lines = append([]SpanLine(nil), lines...)
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].Trace < lines[j].Trace })
	return encodeLines(w, lines)
}

func encodeLines(w io.Writer, lines []SpanLine) error {
	enc := json.NewEncoder(w)
	for _, line := range lines {
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}
