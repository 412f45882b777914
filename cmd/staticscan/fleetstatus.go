// The -fleet-status subcommand: point it at a running coordinator and it
// renders the live fleet status — partition lease states, per-shard and
// fleet-wide throughput, stage-latency quantiles, worker staleness — the
// operator view of a sharded scan in flight.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/telemetry/fleet"
)

// fleetStatusURL normalises what the operator typed — a bare coordinator
// base URL or the full endpoint — into the /fleet/status URL.
func fleetStatusURL(arg string) string {
	u := strings.TrimRight(arg, "/")
	if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
		u = "http://" + u
	}
	if !strings.HasSuffix(u, "/fleet/status") {
		u += "/fleet/status"
	}
	return u
}

// runFleetStatus fetches a coordinator's status document and renders it.
func runFleetStatus(out io.Writer, arg string) error {
	url := fleetStatusURL(arg)
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(url)
	if err != nil {
		return fmt.Errorf("fleet-status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet-status: %s answered %d (is it a staticscan coordinator?)", url, resp.StatusCode)
	}
	var doc fleet.StatusDoc
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&doc); err != nil {
		return fmt.Errorf("fleet-status: decode %s: %w", url, err)
	}
	return fleet.RenderStatus(out, &doc)
}
