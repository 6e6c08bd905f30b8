// Command perfbench is the repository's end-to-end benchmark. It builds
// cmd/cqfitd from the tree under test, runs it as a child process on
// loopback with its default flags plus -pprof, drives one seeded
// closed-loop workload over HTTP, checks every answer and prints its
// metrics as the last line of standard output, after a record line:
//
//	bash perfbench/run.sh --workload solve-1c --seed 1 --seconds 25 --trace 0
//
// The workloads are solve-1c, stream-1c and serve-2c; BENCHMARK.json
// says why each was chosen. With --trace 0 the metrics are the
// end-to-end ones. With --trace 1 the benchmark runs the workload twice,
// untraced and then with ?debug=trace on every request, and prints the
// per-layer metrics: explain-report phases and counters, deltas of
// /v1/stats, /metrics and the daemon's runtime.MemStats, /proc, the
// benchmark's own client spans, and in-process timings of
// engine.JobSpec.Build, Job.FingerprintHex and store.Open.
//
// Three readings are expected on the commit that added the benchmark, so
// later changes can claim against them:
//
//   - stream-1c: ttfr_p50_ms is close to latency_p50_ms, and
//     cqfitd.first_frame_gap_ms close to the whole enumeration, because
//     cqfitd's access log wraps the response writer in a type without
//     Flush, so no stream frame leaves before the handler returns.
//   - solve-1c: the search counters (hom.nodes_per_search and friends)
//     do not repeat exactly from run to run, because cqfitd leaves
//     engine.Options.SearchWorkers at its default and a memo-missed
//     search splits across both cores, the first witness winning. No
//     claim may rest on exact counts there until that changes.
//   - solve-1c: each splitCore construct job takes about 2,600 search
//     nodes, most of them spent failing retraction searches again for
//     each assignment of a component that has no part in the failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "solve-1c, stream-1c or serve-2c")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "length of each timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// serve-2c keeps several hundred thousand responses for checking;
	// a tighter heap target keeps the benchmark process small. The load
	// generator allocates little while it measures, so this costs the
	// timed phase nothing.
	debug.SetGCPercent(50)
	rec, res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	out.Encode(map[string]any{"record": rec})
	out.Encode(res)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

// metric is one named reading with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times an end-to-end run starts a daemon and warms
// it; setup_s is their median, and the last daemon serves the timed
// phase.
const setups = 5

func run(o options) (map[string]any, result, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, result{}, err
	}
	w, err := generate(o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, result{}, err
	}
	buildDir := filepath.Join(root, ".bench_build")
	bin, err := buildDaemon(root, buildDir)
	if err != nil {
		return nil, result{}, err
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, result{}, err
	}
	defer os.RemoveAll(scratch)

	b := &bench{w: w, bin: bin, scratch: scratch, dur: time.Duration(o.seconds) * time.Second}
	if w.prefill != nil {
		if err := b.prefillStore(); err != nil {
			return nil, result{}, err
		}
	}
	rec := map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"commit": commitOf(root), "nproc": runtime.NumCPU(),
	}
	n := setups
	if o.trace == 1 {
		n = 1
	}
	plain, err := b.pass(n, false)
	if err != nil {
		return nil, result{}, err
	}
	plain.describe(rec, "")
	defer func() {
		if hwm, err := readHWM(os.Getpid()); err == nil {
			rec["bench_peak_rss_mb"] = float64(hwm) / 1e6
		}
	}()
	res := result{Correct: plain.failed == 0, Attempted: len(plain.samples), Failed: plain.failed}
	if o.trace == 0 {
		if res.Metrics, err = endToEnd(plain); err != nil {
			return nil, result{}, err
		}
		return rec, res, nil
	}
	// The per-layer metrics need only the untraced pass's totals.
	plain.samples, plain.ph.samples = nil, nil
	traced, err := b.pass(1, true)
	if err != nil {
		return nil, result{}, err
	}
	traced.describe(rec, "traced_")
	res.Correct = res.Correct && traced.failed == 0
	res.Attempted += len(traced.samples)
	res.Failed += traced.failed
	if res.Metrics, err = b.perLayer(plain, traced); err != nil {
		return nil, result{}, err
	}
	return rec, res, nil
}
