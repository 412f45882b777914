package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// recordTrace records one trace's worth of work on a hub: a root span
// with one attribute, a child that starts and ends inside a parent that
// ends after it (so completion order differs from start order), and a
// child of that — enough to exercise every SpanLine field.
func recordTrace(h *Hub, id string) {
	tr := h.Trace(id)
	tr.Start("download", "pkg", id).End()
	analyze := tr.Start("analyze")
	tr.Child("analyze", "parse").End()
	analyze.End()
	tr.Child("download", "verify").End()
}

// TestTracerMarkAndWriteJSONLSince covers the partition-delta export: a
// mark taken mid-run bounds SpansSince to the spans appended after it,
// and a nil mark is the full export WriteJSONL writes.
func TestTracerMarkAndWriteJSONLSince(t *testing.T) {
	h := New(Options{Timing: SeededTiming{Seed: 7}, Tracing: true})
	recordTrace(h, "apk:a")
	mark := h.Tracer().Mark()
	recordTrace(h, "apk:a") // more spans on a marked trace
	recordTrace(h, "apk:b") // a trace born after the mark

	lines := h.Tracer().SpansSince(mark)
	if len(lines) != 8 {
		t.Fatalf("since-export has %d spans, want 8 (4 late on apk:a + 4 on apk:b)", len(lines))
	}
	for _, l := range lines {
		if l.Trace == "apk:a" && l.Seq < 4 {
			t.Errorf("span seq %d of apk:a predates the mark", l.Seq)
		}
	}

	full := h.Tracer().SpansSince(nil)
	if len(full) != 12 {
		t.Fatalf("full export has %d spans, want 12", len(full))
	}
	var want, got strings.Builder
	if err := h.Tracer().WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceJSONL(&got, full); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("full span lines do not encode to WriteJSONL's export:\n%s\nvs\n%s", got.String(), want.String())
	}
}

// TestStitchedTraceMatchesSingleProcess is the trace half of the fleet
// determinism contract at unit scale: the same seeded work recorded on two
// hubs (two workers), exported as partition deltas and stitched with
// WriteTraceJSONL, is byte-identical to one hub recording everything —
// including the parent span that ends after its child.
func TestStitchedTraceMatchesSingleProcess(t *testing.T) {
	one := New(Options{Timing: SeededTiming{Seed: 3}, Tracing: true})
	for _, id := range []string{"apk:a", "apk:b", "apk:c", "apk:d"} {
		recordTrace(one, id)
	}
	var want strings.Builder
	if err := one.Tracer().WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}

	wa := New(Options{Timing: SeededTiming{Seed: 3}, Tracing: true})
	wb := New(Options{Timing: SeededTiming{Seed: 3}, Tracing: true})
	recordTrace(wa, "apk:c")
	recordTrace(wa, "apk:a")
	recordTrace(wb, "apk:d")
	recordTrace(wb, "apk:b")
	lines := append(wa.Tracer().SpansSince(nil), wb.Tracer().SpansSince(nil)...)
	var got strings.Builder
	if err := WriteTraceJSONL(&got, lines); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("stitched trace diverged from single-process export:\n--- single ---\n%s--- stitched ---\n%s", want.String(), got.String())
	}
}

// TestTraceEndpointUnderFederation pins satellite 6: a worker's debug
// server answers /trace with 404 pointing at the coordinator's stitched
// /fleet/trace, and serves it normally when not federated.
func TestTraceEndpointUnderFederation(t *testing.T) {
	h := New(Options{Timing: SeededTiming{Seed: 1}, Tracing: true})
	recordTrace(h, "apk:x")

	fed := httptest.NewServer(NewHandler(h, HandlerOptions{FleetTraceURL: "http://coord:9090/fleet/trace"}))
	defer fed.Close()
	code, _, body := fetch(t, fed.URL+"/trace")
	if code != http.StatusNotFound {
		t.Errorf("federated /trace answered %d, want 404", code)
	}
	if !strings.Contains(body, "/fleet/trace") {
		t.Errorf("federated /trace body does not point at the fleet trace:\n%s", body)
	}

	solo := httptest.NewServer(NewHandler(h, HandlerOptions{}))
	defer solo.Close()
	code, _, body = fetch(t, solo.URL+"/trace")
	if code != http.StatusOK {
		t.Errorf("solo /trace answered %d, want 200", code)
	}
	if !strings.Contains(body, `"trace":"apk:x"`) {
		t.Errorf("solo /trace missing recorded span:\n%s", body)
	}
}
