package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// FuzzCoordinatorBodies posts one fuzzed body to every coordinator
// endpoint that reads its request through readJSON: /v1/lease, /v1/renew,
// /v1/result and /v1/snapshot, in that order. The coordinator runs two
// partitions: partition 0 is leased to worker "w1", and partition 1 is
// complete, so a fuzzed result for partition 0 from "w1" under config key
// "k" finishes the run and merges it. Every answer must be 2xx or 4xx,
// never a 5xx, a panic or a hang, and after each request the ledger must
// hold: leases and completed partitions in range and disjoint, and a
// merged report exactly when every partition is complete.
//
// The target never requests /fleet/status: that view scrapes the metrics
// URLs lease requests announce, and a fuzzed body announces any URL.
func FuzzCoordinatorBodies(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := NewCoordinator(CoordinatorConfig{
			Spec:      RunSpec{Shards: 2, Seed: 1, ConfigKey: "k"},
			Telemetry: telemetry.New(telemetry.Options{Timing: telemetry.SeededTiming{Seed: 1}, Tracing: true}),
			Now:       func() time.Time { return time.Unix(1_700_000_000, 0) },
		})
		if err != nil {
			t.Fatal(err)
		}
		h := c.Handler()
		for _, step := range []struct{ path, body string }{
			{"/v1/lease", `{"worker":"w1"}`},
			{"/v1/lease", `{"worker":"w2"}`},
			{"/v1/result", `{"worker":"w2","partition":1,"configKey":"k","result":{}}`},
		} {
			if code := serve(t, h, step.path, []byte(step.body)); code != http.StatusOK {
				t.Fatalf("setup %s %s: status %d", step.path, step.body, code)
			}
		}
		checkLedger(t, c)
		for _, path := range []string{"/v1/lease", "/v1/renew", "/v1/result", "/v1/snapshot"} {
			if code := serve(t, h, path, body); code/100 != 2 && code/100 != 4 {
				t.Fatalf("POST %s answered %d to %q", path, code, body)
			}
			checkLedger(t, c)
		}
	})
}

// serve posts body to path on h and returns the status, failing the test
// when the handler does not return within 10s.
func serve(t *testing.T, h http.Handler, path string, body []byte) int {
	t.Helper()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("POST %s did not return within 10s", path)
	}
	return rec.Code
}

// checkLedger asserts the coordinator's lease and merge state.
func checkLedger(t *testing.T, c *Coordinator) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := range c.leases {
		if p < 0 || p >= c.spec.Shards {
			t.Fatalf("lease on partition %d of %d", p, c.spec.Shards)
		}
		if _, ok := c.complete[p]; ok {
			t.Fatalf("partition %d is both leased and complete", p)
		}
	}
	for p, res := range c.complete {
		if p < 0 || p >= c.spec.Shards || res == nil {
			t.Fatalf("completed partition %d of %d with result %v", p, c.spec.Shards, res)
		}
	}
	finished := false
	select {
	case <-c.done:
		finished = true
	default:
	}
	if all := len(c.complete) == c.spec.Shards; all != (c.merged != nil) || all != finished {
		t.Fatalf("%d of %d partitions complete, merged %v, done %v", len(c.complete), c.spec.Shards, c.merged != nil, finished)
	}
}

// FuzzCallOnce answers the worker's control-plane calls with a fuzzed
// body from a loopback server, decoding it into each reply type the
// worker reads: the RunSpec, a LeaseGrant and a result's empty
// acknowledgement. callOnce must not panic and must return; a 200 answer
// must decode exactly as encoding/json decodes the body's first value,
// and a body that does not decode must be an error, not a zero reply.
// Any other status is returned as is, with no error and no decode.
func FuzzCallOnce(f *testing.F) {
	var current atomic.Pointer[[]byte]
	var status atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(int(status.Load()))
		w.Write(*current.Load())
	}))
	f.Cleanup(srv.Close)
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "fuzz", HTTP: &http.Client{Timeout: 10 * time.Second}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		current.Store(&body)
		status.Store(http.StatusOK)
		for _, newOut := range []func() any{
			func() any { return new(RunSpec) },
			func() any { return new(LeaseGrant) },
			func() any { return &struct{}{} },
		} {
			got, want := newOut(), newOut()
			code, err := w.callOnce(context.Background(), http.MethodPost, "/v1/fuzz", struct{}{}, got)
			werr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
			switch {
			case werr != nil && err == nil:
				t.Fatalf("%T: callOnce accepted %q, which does not decode: %v", got, body, werr)
			case werr == nil && err != nil:
				t.Fatalf("%T: callOnce failed on %q: %v", got, body, err)
			case err == nil && (code != http.StatusOK || !reflect.DeepEqual(got, want)):
				t.Fatalf("%T: callOnce gave %d %+v, want 200 %+v", got, code, got, want)
			}
		}
		status.Store(http.StatusServiceUnavailable)
		var grant LeaseGrant
		if code, err := w.callOnce(context.Background(), http.MethodPost, "/v1/fuzz", struct{}{}, &grant); err != nil || code != http.StatusServiceUnavailable || grant != (LeaseGrant{}) {
			t.Fatalf("503 answer: code %d, err %v, grant %+v", code, err, grant)
		}
	})
}
