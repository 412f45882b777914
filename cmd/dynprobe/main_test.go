package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// outputDigest is the digest of what `dynprobe -urls` prints at its
// defaults: Tables 6, 8 and 9 and both static-vs-dynamic agreement tables.
const outputDigest = "f089bffb37637e7e74adecd36f07bc363abf36e510ac7810e0e01dbd103d3273"

// TestOutputWorkerIndependent pins the determinism contract stated in the
// package doc: the full dynprobe output — Tables 6/8/9 plus the static↔
// dynamic agreement table — is byte-identical whether probes run
// sequentially on one device or concurrently across a device fleet. It
// also pins the output's digest: a change to the page realm, the script
// engine or the reports that is meant to leave the tables alone must leave
// these bytes alone, and a change meant to alter them pins the digest the
// failure prints.
func TestOutputWorkerIndependent(t *testing.T) {
	var seq, par bytes.Buffer
	if err := run(&seq, 100, 1, 1000, 1, 1, true, nil); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	if err := run(&par, 100, 1, 1000, 4, 2, true, nil); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Errorf("output differs between workers=1/devices=1 and workers=4/devices=2:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seq.String(), par.String())
	}
	sum := sha256.Sum256(seq.Bytes())
	if got := hex.EncodeToString(sum[:]); got != outputDigest {
		t.Errorf("%d bytes have digest %s, pinned %s", seq.Len(), got, outputDigest)
	}
	out := seq.String()
	if !strings.Contains(out, "Static vs dynamic endpoint-host agreement") {
		t.Fatalf("agreement table missing from output:\n%s", out)
	}
	agreement := out[strings.Index(out, "Static vs dynamic"):]
	if !strings.Contains(agreement, "total") {
		t.Errorf("agreement table lacks a totals row:\n%s", agreement)
	}
	// At least one probed IAB must appear as a row above the totals line.
	if strings.Count(agreement, "\n") < 4 {
		t.Errorf("agreement table has no per-app rows:\n%s", agreement)
	}
	if !strings.Contains(out, "Static vs dynamic agreement by SDK attribution") {
		t.Fatalf("per-SDK agreement table missing from output:\n%s", out)
	}
	sdk := out[strings.Index(out, "by SDK attribution"):]
	if !strings.Contains(sdk, "total") {
		t.Errorf("per-SDK table lacks a totals row:\n%s", sdk)
	}
}
