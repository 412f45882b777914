// Command loadtime prints the Figure 7 page-load-time comparison: the same
// page rendered in a Custom Tab (pre-warmed, speculatively loaded), in
// Chrome, in an external browser reached via intent, and in a WebView.
//
// With -serving it instead benchmarks the hardened measurement serving
// plane: for each simulated-user scale it boots a fresh ingest service on a
// loopback socket, replays closed-loop crawl-shaped beacon traffic through
// the retrying client, drains the plane, and reconciles client accounting
// against server accounting — exiting non-zero if a single beacon went
// missing. Results (p50/p99 latency, throughput, shed rate) are written to
// -bench-out as JSON.
//
// Usage:
//
//	loadtime [-requests N] [-cpuprofile FILE] [-memprofile FILE]
//	         [-telemetry-addr ADDR] [-metrics-out FILE]
//	loadtime -serving [-serving-users 4,16,64] [-serving-batches N]
//	         [-serving-beacons N] [-serving-queue N] [-serving-workers N]
//	         [-serving-rate R] [-serving-burst B] [-serving-maxconc N]
//	         [-serving-seed S] [-bench-out FILE]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/measure"
	"repro/internal/pageload"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

func main() {
	requests := flag.Int("requests", 12, "resource requests on the measured page")
	servingMode := flag.Bool("serving", false, "benchmark the serving plane instead of printing Figure 7")
	users := flag.String("serving-users", "4,16,64", "comma-separated simulated-user scales")
	batches := flag.Int("serving-batches", 50, "batches each simulated user posts")
	beaconsPer := flag.Int("serving-beacons", 5, "mean beacons per batch")
	queueDepth := flag.Int("serving-queue", 128, "ingest queue depth in batches")
	workers := flag.Int("serving-workers", 2, "queue-drain workers")
	rate := flag.Float64("serving-rate", 0, "per-tenant quota in beacons/second (0 = unlimited)")
	burst := flag.Float64("serving-burst", 0, "per-tenant burst in beacons (0 = derive)")
	maxConc := flag.Int("serving-maxconc", 64, "admission-control concurrency limit")
	seed := flag.Int64("serving-seed", 1, "load-shape and retry-jitter seed")
	benchOut := flag.String("bench-out", "BENCH_serving.json", "serving benchmark output file")
	var prof profiling.Flags
	prof.Register(nil)
	var telem telemetry.Flags
	telem.Register(nil)
	flag.Parse()
	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	// loadtime has no seed flag; deterministic timings derive from a fixed
	// one.
	telem.Hub(1)
	if err := telem.Start(); err != nil {
		log.Fatal(err)
	}
	if *servingMode {
		if err := runServingBench(servingBenchConfig{
			Users:      *users,
			Batches:    *batches,
			Beacons:    *beaconsPer,
			QueueDepth: *queueDepth,
			Workers:    *workers,
			Rate:       *rate,
			Burst:      *burst,
			MaxConc:    *maxConc,
			Seed:       *seed,
			Out:        *benchOut,
		}); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Print(report.Figure7(pageload.Default(), *requests))
	}
	if err := telem.Finish(); err != nil {
		log.Fatal(err)
	}
	if err := prof.Stop(); err != nil {
		log.Fatal(err)
	}
}

type servingBenchConfig struct {
	Users      string
	Batches    int
	Beacons    int
	QueueDepth int
	Workers    int
	Rate       float64
	Burst      float64
	MaxConc    int
	Seed       int64
	Out        string
}

// servingBenchReport is the BENCH_serving.json document.
type servingBenchReport struct {
	QueueDepth int                   `json:"queue_depth"`
	Workers    int                   `json:"workers"`
	TenantRate float64               `json:"tenant_rate"`
	MaxConc    int                   `json:"max_concurrent"`
	Seed       int64                 `json:"seed"`
	Runs       []*serving.LoadResult `json:"runs"`
}

func parseScales(s string) ([]int, error) {
	var scales []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("loadtime: bad -serving-users entry %q", part)
		}
		scales = append(scales, n)
	}
	if len(scales) == 0 {
		return nil, fmt.Errorf("loadtime: -serving-users is empty")
	}
	return scales, nil
}

// runServingBench runs one closed-loop load generation per user scale
// against a fresh serving plane, reconciles the accounting, prints a
// summary table, and writes the JSON report.
func runServingBench(cfg servingBenchConfig) error {
	scales, err := parseScales(cfg.Users)
	if err != nil {
		return err
	}
	rep := servingBenchReport{
		QueueDepth: cfg.QueueDepth,
		Workers:    cfg.Workers,
		TenantRate: cfg.Rate,
		MaxConc:    cfg.MaxConc,
		Seed:       cfg.Seed,
	}
	fmt.Printf("%-6s %10s %10s %10s %12s %12s %14s %9s\n",
		"users", "sent", "accepted", "shed", "p50", "p99", "beacons/s", "shed%")
	for _, n := range scales {
		res, err := benchOneScale(cfg, n)
		if err != nil {
			return err
		}
		rep.Runs = append(rep.Runs, res)
		fmt.Printf("%-6d %10d %10d %10d %12s %12s %14.0f %8.1f%%\n",
			res.Users, res.Sent, res.Accepted, res.Shed,
			res.P50.Round(time.Microsecond), res.P99.Round(time.Microsecond),
			res.Throughput, 100*res.ShedRate)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.Out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d scales, lossless accounting verified)\n", cfg.Out, len(rep.Runs))
	return nil
}

func benchOneScale(cfg servingBenchConfig, users int) (*serving.LoadResult, error) {
	sink := measure.NewServer()
	svc := serving.NewService(serving.Config{
		Sink:          sink,
		QueueDepth:    cfg.QueueDepth,
		Workers:       cfg.Workers,
		MaxConcurrent: cfg.MaxConc,
		TenantRate:    cfg.Rate,
		TenantBurst:   cfg.Burst,
	})
	ep, err := serving.Listen("127.0.0.1:0", svc.Handler())
	if err != nil {
		svc.Close()
		return nil, err
	}
	defer ep.Close()

	res, err := serving.RunLoad(context.Background(), serving.LoadConfig{
		URL:             "http://" + ep.Addr + "/collect",
		Users:           users,
		BatchesPerUser:  cfg.Batches,
		BeaconsPerBatch: cfg.Beacons,
		Seed:            cfg.Seed,
	})
	if err != nil {
		svc.Close()
		return nil, err
	}
	if err := svc.Drain(context.Background()); err != nil {
		return nil, err
	}
	if err := res.Reconcile(svc.Stats()); err != nil {
		return nil, fmt.Errorf("loadtime: %d users: %w", users, err)
	}
	if got := sink.Beacons(); got != res.BeaconsAccepted {
		return nil, fmt.Errorf("loadtime: %d users: sink holds %d beacons, client counted %d accepted",
			users, got, res.BeaconsAccepted)
	}
	return res, nil
}
