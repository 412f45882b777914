package androzoo

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/retry"
)

// packageName is the oracle for android.IsPackageName.
var packageName = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9_]*(\.[A-Za-z][A-Za-z0-9_]*)*$`)

// FuzzList serves an arbitrary /snapshot body to Client.List. With the
// body's true digest trailer, List must return an error or the body's
// non-blank lines, trimmed, in body order, each a package name by the
// oracle; it errs only on a line that is not one (or a line too long to
// scan). Each line is then handed to Download, which must refuse every
// non-name without making a request. The same body with a wrong trailer,
// or with none, must be a retryable error.
func FuzzList(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		sum := sha256.Sum256(body)
		wrong := sum
		wrong[0] ^= 1
		for _, trailer := range []http.Header{
			{DigestHeader: {hex.EncodeToString(wrong[:])}},
			nil,
		} {
			client, apkRequests := listingClientTrailer(body, trailer)
			if names, err := client.List(context.Background()); err == nil || !retry.IsRetryable(err) {
				t.Fatalf("List with trailer %v = %q, %v; want a retryable error", trailer, names, err)
			}
			if *apkRequests != 0 {
				t.Fatalf("List made %d APK requests", *apkRequests)
			}
		}

		client, apkRequests := listingClient(body)

		var lines []string
		valid := true
		for _, line := range strings.Split(string(body), "\n") {
			if line = strings.TrimSpace(line); line != "" {
				lines = append(lines, line)
				valid = valid && packageName.MatchString(line)
			}
		}
		names, err := client.List(context.Background())
		switch {
		case err != nil && valid && len(body) < 1<<20:
			t.Fatalf("List refused a listing of package names: %v", err)
		case err == nil && !valid:
			t.Fatalf("List accepted %q", names)
		case err == nil && len(names)+len(lines) > 0 && !reflect.DeepEqual(names, lines):
			t.Fatalf("List = %q, want the body's lines %q", names, lines)
		}

		for _, line := range lines {
			before := *apkRequests
			_, err := client.Download(context.Background(), line)
			switch {
			case packageName.MatchString(line) && *apkRequests != before+1:
				t.Fatalf("Download(%q) made %d requests, want 1", line, *apkRequests-before)
			case !packageName.MatchString(line) && (err == nil || *apkRequests != before):
				t.Fatalf("Download(%q) was not refused before a request (err %v)", line, err)
			}
		}
	})
}
