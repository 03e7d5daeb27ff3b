// Command perfbench is qcsim's repository benchmark: four workloads run
// on the public surfaces (the qcsim facade, qcsim/circuit, and qcserve's
// HTTP API), each checked for correctness, with end-to-end metrics from
// an untraced run and per-layer metrics from a separate traced run.
//
// Usage (from the repository root; run.sh builds qcserve and this
// command first):
//
//	bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end set every workload reports; with --trace 1 they
// are the per-layer set. The lines before it are a human-readable
// report that also carries workload-specific end-to-end numbers
// (alloc_bytes, peak_footprint_bytes, fidelity, scrape_p90_s,
// failed_frac) with their units and sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workload is one benchmark input set. run measures it for the given
// duration and fills the report. BENCHMARK.json records why each one
// is in the set.
type workload struct {
	name string
	run  func(env *env, rep *report) error
}

var workloads = []workload{
	{"qaoa16-lossless", runQAOA16},
	{"supremacy16-lossy-2rank", runSupremacy16},
	{"qaoa14-batch25", runBatch25},
	{"serve-mixed", runServeMixed},
}

// env carries the run's arguments and scratch locations.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	qcserve string // path to the qcserve binary (serve-mixed only)
	scratch string // per-process scratch dir, removed at exit
	traces  string // where the traced run writes its spans
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "how long each workload measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		qcserve = flag.String("qcserve", "", "path to a qcserve binary built from this checkout")
		workdir = flag.String("workdir", ".bench_build", "directory for scratch files and span dumps")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*workdir, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		qcserve: *qcserve,
		scratch: scratch,
		traces:  filepath.Join(*workdir, "traces"),
	}

	var reports []*report
	for _, w := range selected {
		rep := newReport(w.name, e)
		if err := w.run(e, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if e.trace {
			if err := rep.tr.dump(e.traces, w.name, e.seed); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: writing spans: %v\n", w.name, err)
				return 1
			}
		}
		rep.print(os.Stdout)
		reports = append(reports, rep)
	}
	return printResult(reports, e.trace)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(reports []*report, trace bool) int {
	res := result{Correct: true, Metrics: map[string]resultValue{}}
	for _, rep := range reports {
		res.Attempted += rep.acct.attempted
		res.Failed += rep.acct.failed
		if !rep.correct() {
			res.Correct = false
		}
		set := rep.e2e
		if trace {
			set = rep.layer
		}
		for _, m := range set {
			key := m.name
			if len(reports) > 1 {
				key = rep.workload + "." + m.name
			}
			res.Metrics[key] = resultValue{Value: m.value, Unit: m.unit}
		}
	}
	if res.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
