package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/pageload"
	"repro/internal/report"
)

// outputDigest is the digest of what `loadtime` prints at its default
// -requests 12 (Figure 7).
const outputDigest = "66b69f64f4b80ec7e9638ec497928a31e25e9d7d3d9f202d62ef90a9106ae29c"

// TestOutputPinned fails when Figure 7 changes; a change meant to alter it
// pins the digest the failure prints.
func TestOutputPinned(t *testing.T) {
	out := report.Figure7(pageload.Default(), 12)
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != outputDigest {
		t.Errorf("%d bytes have digest %s, pinned %s", len(out), got, outputDigest)
	}
}
