package playstore

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/retry"
)

// packageName is the oracle for android.IsPackageName.
var packageName = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9_]*(\.[A-Za-z][A-Za-z0-9_]*)*$`)

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// FuzzLookup drives both ends of the lookup wire with one {pkgs} path
// segment, seg, and one answer body. A segment is well formed when it is
// 1 to MaxBatch comma-separated package names, by the oracle.
//
// The server is handed seg: it must answer a 400 to a malformed segment
// and a 200 to a well-formed one, holding one entry per name, each the
// store's listing of that name or null.
//
// The client is asked for the names in seg. A malformed list must be
// refused, as not worth retrying, without a request. Otherwise it is
// served body as a 200, and must return a retryable error or exactly what
// encoding/json decodes from body; it must accept body exactly when that
// decodes to one entry per name, each null or naming the name at its
// place, in at most 1 MiB.
func FuzzLookup(f *testing.F) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 20000})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(c)
	f.Fuzz(func(t *testing.T, seg string, body []byte) {
		names := strings.Split(seg, ",")
		wellFormed := len(names) <= MaxBatch
		for _, name := range names {
			wellFormed = wellFormed && packageName.MatchString(name)
		}

		req := httptest.NewRequest(http.MethodGet, "/v1/apps/seg", nil)
		req.SetPathValue("pkgs", seg)
		rec := httptest.NewRecorder()
		srv.handleApps(rec, req)
		switch {
		case !wellFormed && rec.Code != http.StatusBadRequest:
			t.Fatalf("server answered %d to the malformed list %.80q, want 400", rec.Code, seg)
		case wellFormed && rec.Code != http.StatusOK:
			t.Fatalf("server answered %d to %.80q, want 200", rec.Code, seg)
		case wellFormed:
			var answer []*Metadata
			if err := json.Unmarshal(rec.Body.Bytes(), &answer); err != nil {
				t.Fatalf("server answer to %.80q does not decode: %v", seg, err)
			}
			if len(answer) != len(names) {
				t.Fatalf("server answered %d entries for %d names", len(answer), len(names))
			}
			for i, md := range answer {
				want := listingOf(c.AppByPackage(names[i]))
				if (md == nil) != (want == nil) || md != nil && !equalListing(*md, *want) {
					t.Fatalf("server entry %d for %s = %+v, want %+v", i, names[i], md, want)
				}
			}
		}

		requests := 0
		client := NewClient("http://playstore.test", &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			requests++
			return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(body)), Request: r}, nil
		})})
		mds, err := client.Lookup(context.Background(), names)
		if !wellFormed {
			if err == nil || retry.IsRetryable(err) || requests != 0 {
				t.Fatalf("Lookup of the malformed list %.80q = %v after %d requests, want a permanent refusal before any", seg, err, requests)
			}
			return
		}

		var want []*Metadata
		accept := json.Unmarshal(body, &want) == nil && len(want) == len(names)
		for i := 0; accept && i < len(want); i++ {
			accept = want[i] == nil || want[i].Package == names[i]
		}
		switch {
		case err != nil && !retry.IsRetryable(err):
			t.Fatalf("Lookup refused an answer with a permanent error: %v", err)
		case err != nil && accept && len(body) <= maxBody:
			t.Fatalf("Lookup refused an answer encoding/json accepts: %v", err)
		case err == nil && (!accept || len(body) > maxBody):
			t.Fatalf("Lookup accepted a %d-byte answer for %q that encoding/json or the entry checks refuse", len(body), names)
		case err == nil && !reflect.DeepEqual(mds, want):
			t.Fatalf("Lookup = %+v, encoding/json decodes %+v", mds, want)
		}
	})
}
