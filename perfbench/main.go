// Command perfbench times the paper job end to end and layer by layer.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload scan --seed 1 --seconds 30 --trace 0
//
// Each invocation runs one workload as a closed loop: one client, one job
// in flight, jobs back to back. The workloads are
//
//	scan     the static study over loopback AndroZoo/Play Store servers,
//	         wired as cmd/staticscan wires them (scale 200)
//	analyze  the same study over in-memory sources, writing every analysis
//	         through a persistent result cache to a fresh in-memory blob
//	         store (scale 20)
//	dynamic  Table 6, Tables 8/9, the Figure 6 crawl and Figure 7
//
// Set-up builds the inputs from --seed, several times, and reports the
// median as setup_s. One untimed warm-up job follows; the timed jobs then
// run for --seconds. Every job's outputs are checked against ground truth
// derived from the generated inputs, and the rendered tables must be
// byte-identical across the jobs of a run.
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics: setup_s, job_s, cpu_s_per_job, alloc_mb_per_job,
// peak_rss_mb and ok_frac. With --trace 1 the jobs alternate between
// traced and plain; traced jobs record spans around the calls into each
// layer from outside the program, and the JSON holds the per-layer
// metrics derived from them plus the tracing overhead. The spans of the
// last traced job are written as JSONL to --spans-out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart approximates the process start for the first set-up's
// timing; package variables initialise before main runs.
var processStart = time.Now()

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale overrides the static workloads' corpus scale and sites the
	// crawl's site count (0 keeps the workload default); the benchmark's
	// own test uses them to run at a tiny size.
	scale    int
	sites    int
	spansOut string
	stderr   io.Writer // progress and the human-readable summary
}

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

// benchMain runs the benchmark with the given arguments, prints the JSON
// result as the last line of stdout and returns the exit code.
func benchMain(args []string, stdout, stderr io.Writer) int {
	cfg := config{stderr: stderr}
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "how long the timed jobs run")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.IntVar(&cfg.scale, "scale", 0, "override the static corpus scale (0 = workload default)")
	fs.IntVar(&cfg.sites, "sites", 0, "override the crawl's site count (0 = 100)")
	fs.StringVar(&cfg.spansOut, "spans-out", "", "span JSONL path of a traced run (default .bench_build/spans/<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag != 0
	if cfg.spansOut == "" {
		cfg.spansOut = filepath.Join(".bench_build", "spans", cfg.workload+".jsonl")
	}

	res, err := run(cfg)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(stderr, "perfbench:", jerr)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload is one named benchmark workload after set-up.
type workload interface {
	// job runs one paper job. rec is nil on a plain job; on a traced job
	// the workload records its layer spans into it.
	job(rec *recorder) (*jobOutcome, error)
	// check verifies a job's outputs against the workload's ground truth
	// and against the first job's rendered tables.
	check(o *jobOutcome) error
	// layers derives the per-layer metrics of a traced job from its spans,
	// along with those set-up measured.
	layers(o *jobOutcome, rec *recorder) map[string]float64
	// replay re-runs the per-APK analysis of a traced job part by part,
	// recording its spans into rec, and returns the metrics it derives
	// (nil for a workload that analyses nothing).
	replay(o *jobOutcome, rec *recorder) map[string]float64
	close()
}

// jobOutcome is what one job produced, for checking and for metrics.
type jobOutcome struct {
	rendered string
	// ops and failedOps count the job's operations: listed entries and
	// quarantined packages for the static study, attempted and failed
	// visits for the crawl.
	ops, failedOps int
	// detail carries workload-specific results into check and layers.
	detail any
}

var workloadNames = []string{"scan", "analyze", "dynamic"}

func setupWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "scan", "analyze":
		return newStatic(cfg)
	case "dynamic":
		return newDynamic(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// jobSample is the cost of one job.
type jobSample struct {
	wall, cpu time.Duration
	alloc     uint64
}

func run(cfg config) (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	// A plain run sets up several times and reports the median; a traced
	// run reports no set-up time, so one set-up suffices.
	setups := 3
	if cfg.trace {
		setups = 1
	}

	// Set-up runs several times; all but the last instance are closed.
	var w workload
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		var err error
		if w, err = setupWorkload(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer w.close()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var ops, failedOps int
	// runJob runs, times and checks one job.
	runJob := func(rec *recorder) (*jobOutcome, jobSample, error) {
		// Every job starts from a collected heap, so one job's garbage is
		// not collected on the next job's clock.
		runtime.GC()
		before := readSample()
		o, err := w.job(rec)
		s := readSample().since(before)
		res.Attempted++
		if err == nil {
			err = w.check(o)
		}
		if err != nil {
			res.Failed++
			res.Correct = false
			return nil, s, err
		}
		ops += o.ops
		failedOps += o.failedOps
		return o, s, nil
	}

	// The warm-up job fills lazily built state (the jsvm program cache,
	// connection pools, the heap) and is not timed.
	if _, _, err := runJob(nil); err != nil {
		return res, fmt.Errorf("warm-up job: %w", err)
	}

	var plain, traced []jobSample
	var layerRuns []map[string]float64
	var lastRec *recorder
	var lastTraced *jobOutcome
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	// last is the previous job's duration: the loop stops before a job
	// that would likely overrun the window.
	var last time.Duration
	for i := 0; ; i++ {
		enough := len(plain) >= 3 && (!cfg.trace || len(traced) >= 2)
		if enough && time.Since(start)+last > window {
			break
		}
		var rec *recorder
		if cfg.trace && i%2 == 0 {
			rec = newRecorder(fmt.Sprintf("job%d", i))
		}
		o, s, err := runJob(rec)
		if err != nil {
			return res, fmt.Errorf("job %d: %w", i, err)
		}
		last = s.wall
		if rec == nil {
			plain = append(plain, s)
			continue
		}
		traced = append(traced, s)
		layerRuns = append(layerRuns, w.layers(o, rec))
		lastRec, lastTraced = rec, o
	}

	if !cfg.trace {
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
		res.Metrics["job_s"] = metric{median(column(plain, wallS)), "s"}
		res.Metrics["cpu_s_per_job"] = metric{median(column(plain, cpuS)), "s"}
		res.Metrics["alloc_mb_per_job"] = metric{median(column(plain, allocMB)), "MB"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		res.Metrics["ok_frac"] = metric{1 - float64(failedOps)/float64(ops), "ratio"}
		fmt.Fprintf(cfg.stderr, "%s seed %d: set-ups %.3f s, %d timed jobs %.3f s\n",
			cfg.workload, cfg.seed, setupTimes, len(plain), column(plain, wallS))
		printMetrics(cfg.stderr, res.Metrics)
		return res, nil
	}

	layers := medianLayers(layerRuns)
	for k, v := range w.replay(lastTraced, lastRec) {
		layers[k] = v
	}
	tracedJob, plainJob := median(column(traced, wallS)), median(column(plain, wallS))
	layers["trace.job_s"] = tracedJob
	layers["trace.plain_job_s"] = plainJob
	layers["trace.overhead_s"] = tracedJob - plainJob
	layers["trace.spans"] = float64(lastRec.len())
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{layers[m.name], m.unit}
	}
	if err := lastRec.writeJSONL(cfg.spansOut); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(cfg.stderr, "%s seed %d: %d traced and %d plain jobs; spans in %s\n",
		cfg.workload, cfg.seed, len(traced), len(plain), cfg.spansOut)
	printMetrics(cfg.stderr, res.Metrics)
	return res, nil
}

// column extracts one cost from every job sample.
func column(s []jobSample, f func(jobSample) float64) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = f(x)
	}
	return out
}

func wallS(x jobSample) float64   { return x.wall.Seconds() }
func cpuS(x jobSample) float64    { return x.cpu.Seconds() }
func allocMB(x jobSample) float64 { return float64(x.alloc) / (1 << 20) }

// median of a non-empty sample; the mean of the middle pair for even n.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianLayers takes, per metric, the median over the traced jobs.
func medianLayers(runs []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range runs {
		for k, v := range r {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
