package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/crawler"
)

// outputDigest is the digest of what `crawlsites` prints at its defaults
// (the three Figure 6 tables), followed by one line per visit with its
// external hosts in (app, site) order.
const outputDigest = "5f4a0869a1f971b84b3286375e3cba1ce856dfc7548aa8ec2803628e0b6c387f"

// TestOutputPinned fails when the default crawl's output changes: a change
// to the page realm, the script engine, the crawl or the reports that is
// meant to leave the tables alone must leave these bytes alone. A change
// meant to alter them pins the digest the failure prints.
func TestOutputPinned(t *testing.T) {
	var out strings.Builder
	res, err := run(&out, 100, 40, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	visits := append([]crawler.Visit(nil), res.Visits...)
	sort.SliceStable(visits, func(i, j int) bool {
		if visits[i].App != visits[j].App {
			return visits[i].App < visits[j].App
		}
		return visits[i].Site.Host < visits[j].Site.Host
	})
	for _, v := range visits {
		fmt.Fprintf(&out, "%s %s: %s\n", v.App, v.Site.Host, strings.Join(v.ExternalHosts, " "))
	}
	sum := sha256.Sum256([]byte(out.String()))
	if got := hex.EncodeToString(sum[:]); got != outputDigest {
		t.Errorf("%d bytes have digest %s, pinned %s", out.Len(), got, outputDigest)
	}
}
