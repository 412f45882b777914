package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// stamp is a point-in-time reading of the process clocks.
type stamp struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func readSample() stamp {
	return stamp{wall: time.Now(), cpu: processCPU(), alloc: heapAllocated()}
}

func (s stamp) since(before stamp) jobSample {
	return jobSample{wall: s.wall.Sub(before.wall), cpu: s.cpu - before.cpu, alloc: s.alloc - before.alloc}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocSample is reused so that reading it allocates nothing; only the
// harness goroutine reads it.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated is the cumulative count of bytes the Go heap has
// allocated. It is process-wide, so it attributes allocation to a call only
// while nothing else runs.
func heapAllocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
