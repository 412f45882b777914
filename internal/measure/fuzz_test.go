package measure

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzDecodeCollect posts arbitrary bodies through DecodeCollect, the
// beacon decoder behind Server's /collect. It must not panic; it may
// accept only one JSON array with nothing after it, and the batch it
// returns must survive a re-encode; every refusal must answer 400, or 413
// for a body over MaxCollectBody. Each body is also served through
// Server.Handler(): a 204 must add exactly the decoded batch's length to
// Beacons(), and a 400 or 413 must add none, so counted + refused == sent.
// Seeds live in testdata/fuzz/FuzzDecodeCollect.
func FuzzDecodeCollect(f *testing.F) {
	post := func(body []byte) (*httptest.ResponseRecorder, []Trace, error) {
		rec := httptest.NewRecorder()
		batch, err := DecodeCollect(rec, httptest.NewRequest(http.MethodPost, "/collect", bytes.NewReader(body)))
		return rec, batch, err
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := NewServer()
		served := httptest.NewRecorder()
		srv.Handler().ServeHTTP(served, httptest.NewRequest(http.MethodPost, "/collect", bytes.NewReader(body)))

		rec, batch, err := post(body)
		if err != nil {
			WriteCollectError(rec, err)
			tooLarge := rec.Code == http.StatusRequestEntityTooLarge && len(body) > MaxCollectBody
			if rec.Code != http.StatusBadRequest && !tooLarge {
				t.Fatalf("refusal %q answered %d", err, rec.Code)
			}
			if served.Code != rec.Code || srv.Beacons() != 0 {
				t.Fatalf("handler answered %d and counted %d for a body DecodeCollect refused with %d",
					served.Code, srv.Beacons(), rec.Code)
			}
			return
		}
		want := http.StatusNoContent
		for _, tr := range batch {
			if tr.Interface == "" && tr.Method == "" {
				want = http.StatusBadRequest
			}
		}
		counted := int64(len(batch))
		if want != http.StatusNoContent {
			counted = 0
		}
		if served.Code != want || srv.Beacons() != counted {
			t.Fatalf("handler answered %d and counted %d for %d beacons; want %d and %d",
				served.Code, srv.Beacons(), len(batch), want, counted)
		}
		trimmed := bytes.Trim(body, " \t\r\n")
		if !json.Valid(body) || len(trimmed) < 2 || trimmed[0] != '[' || trimmed[len(trimmed)-1] != ']' {
			t.Fatalf("accepted %q, which is not one JSON array", body)
		}
		again, err := json.Marshal(batch)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", batch, err)
		}
		_, back, err := post(again)
		if err != nil {
			t.Fatalf("re-encoded batch %s refused: %v", again, err)
		}
		if !reflect.DeepEqual(batch, back) {
			t.Fatalf("round trip changed the batch:\n%+v\n%+v", batch, back)
		}
	})
}
