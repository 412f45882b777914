// Package shard is the coordinator/worker scan plane that takes the static
// pipeline from one process to N: the coordinator partitions the AndroZoo
// snapshot by hash-of-package, hands out per-partition work leases over
// HTTP (TTL + renewal; an expired lease is re-issued so a killed worker's
// partition is re-scanned by a peer), collects per-shard pipeline.Result
// payloads, and merges them into a report byte-identical to a
// single-process run.
//
// A worker crash costs no analysis: the content-addressed resultcache
// (RunSpec.CacheDir) is shared by every shard as a common blob tier, so
// the peer that takes over a dead worker's partition downloads the
// packages the dead worker completed again, finds each under its payload
// digest and analyses none of them twice.
package shard

import (
	"fmt"
	"hash/fnv"
	"time"
)

// PartitionOf maps a package name to its shard partition: FNV-1a 64 of the
// package modulo the shard count. Every layer — coordinator, workers,
// tests — must agree on this mapping, which is why it is a pure function
// of (package, shards) and not coordinator state.
func PartitionOf(pkg string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(pkg))
	return int(h.Sum64() % uint64(shards))
}

// PartitionTag names one shard's partition, "index/shards", in control
// spans and /fleet/status rows.
func PartitionTag(index, shards int) string {
	return fmt.Sprintf("%d/%d", index, shards)
}

// RunSpec is the scan configuration the coordinator serves to joining
// workers: everything a worker needs to run its partitions exactly like
// every other worker, so per-shard results merge into one coherent report.
type RunSpec struct {
	// Shards is the partition count (= the number of leases to complete).
	Shards int `json:"shards"`

	// RepoURL / StoreURL locate the AndroZoo repository and Play Store
	// metadata service the workers scan.
	RepoURL  string `json:"repoUrl"`
	StoreURL string `json:"storeUrl"`

	// MinDownloads / UpdatedAfter are the paper's selection filter; zero
	// values use the defaults (100K downloads, 2021-01-01).
	MinDownloads int64     `json:"minDownloads,omitempty"`
	UpdatedAfter time.Time `json:"updatedAfter,omitempty"`

	// Workers bounds per-stage concurrency inside one shard's pipeline
	// (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`

	// Lint / LintRules / URLs enable the optional analysis stages; they
	// are part of the analysis configuration fingerprint, so all shards
	// must run them identically.
	Lint      bool     `json:"lint,omitempty"`
	LintRules []string `json:"lintRules,omitempty"`
	URLs      bool     `json:"urls,omitempty"`

	// MaxFailureFrac is each shard's quarantine error budget.
	MaxFailureFrac float64 `json:"maxFailureFrac,omitempty"`

	// Retries is the extra attempts a partition's pipeline gives each
	// repository and store operation (0 = no retry).
	Retries int `json:"retries,omitempty"`

	// Faults is the fault-injection spec (faults.ParseSpec) every worker
	// applies to each partition's services and cache, drawn afresh per
	// partition: one partition injects what a single scan would.
	Faults string `json:"faults,omitempty"`

	// CacheDir, when non-empty, is the shared content-addressed blob tier:
	// every worker opens a persistent resultcache over this directory, so
	// an APK analysed by any shard (or a previous run) is never analysed
	// again anywhere.
	CacheDir string `json:"cacheDir,omitempty"`

	// DownloadLatency models the repository's per-APK transfer time (the
	// real AndroZoo is network-bound, the in-process simulator is not).
	// Applied identically to every shard.
	DownloadLatency time.Duration `json:"downloadLatency,omitempty"`

	// LeaseTTL bounds how long a silent worker holds a partition before
	// the coordinator re-issues it (0 = DefaultLeaseTTL). Workers renew at
	// TTL/3.
	LeaseTTL time.Duration `json:"leaseTtl,omitempty"`

	// ConfigKey is the analysis-configuration fingerprint the coordinator
	// expects (pipeline.ConfigKey of the reference configuration). A
	// worker whose local configuration fingerprints differently refuses to
	// join rather than contaminate the merged report.
	ConfigKey string `json:"configKey,omitempty"`

	// Seed drives every seed-derived quantity in the run — deterministic
	// telemetry timings and the fleet trace id — so all workers observe
	// with the same clock discipline whatever process they run in.
	Seed int64 `json:"seed,omitempty"`

	// Wallclock makes worker hubs record real durations instead of the
	// seed-derived deterministic timings — the live-operations trade-off,
	// at the cost of the byte-identical federated snapshot.
	Wallclock bool `json:"wallclock,omitempty"`

	// CorpusEntries is the streamed corpus size (entries in the AndroZoo
	// snapshot), used by /fleet/status to estimate progress and ETA. Zero
	// means unknown.
	CorpusEntries int `json:"corpusEntries,omitempty"`
}

// DefaultLeaseTTL is the lease lifetime when RunSpec.LeaseTTL is unset.
const DefaultLeaseTTL = 30 * time.Second

// TTL returns the effective lease TTL.
func (s RunSpec) TTL() time.Duration {
	if s.LeaseTTL > 0 {
		return s.LeaseTTL
	}
	return DefaultLeaseTTL
}
