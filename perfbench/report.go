package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"qcsim"
)

// spec names a metric and its unit.
type spec struct{ name, unit string }

// e2eSpecs is the end-to-end set: every workload reports every one, and
// none is ever 0, so a later change can be held to a bound on each.
var e2eSpecs = []spec{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"shots_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"footprint_bytes", "B"},
	{"fidelity_bound", "ratio"},
	{"success_frac", "ratio"},
}

// layerSpecs is the per-layer set of the traced run. Engine counts come
// from a Workers=1 pass, where they repeat exactly; "cpu_s" values are
// CPU seconds summed over workers, never wall time.
var layerSpecs = []spec{
	{"compress.cpu_s", "cpu-s"},
	{"decompress.cpu_s", "cpu-s"},
	{"compress.calls", "count"},
	{"decompress.calls", "count"},
	{"codec.probe.lossless.encode_MBps", "MB/s"},
	{"codec.probe.lossless.decode_MBps", "MB/s"},
	{"codec.probe.lossless.ratio", "ratio"},
	{"codec.probe.lossless.allocs_per_call", "count"},
	{"codec.probe.lossy.bound", "ratio"},
	{"codec.probe.lossy.encode_MBps", "MB/s"},
	{"codec.probe.lossy.decode_MBps", "MB/s"},
	{"codec.probe.lossy.ratio", "ratio"},
	{"codec.probe.lossy.allocs_per_call", "count"},
	{"core.compute_cpu_s", "cpu-s"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.sweep_passes_saved", "count"},
	{"core.memo_passes_shared", "count"},
	{"core.escalations", "count"},
	{"core.final_level", "count"},
	{"core.max_footprint_bytes", "B"},
	{"core.fidelity", "ratio"},
	{"core.sample_s", "s"},
	{"blockstore.max_resident_bytes", "B"},
	{"blockstore.spill_writes", "count"},
	{"blockstore.spill_reads", "count"},
	{"blockstore.prefetch_hit_ratio", "ratio"},
	{"mpi.comm_cpu_s", "cpu-s"},
	{"mpi.bytes_moved", "B"},
	{"server.admit_s", "s"},
	{"server.first_progress_s", "s"},
	{"server.exec_s", "s"},
	{"server.sample_s", "s"},
	{"server.suspend_s", "s"},
	{"server.resume_s", "s"},
	{"server.scrape_s", "s"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_s", "cpu-s"},
	{"go.alloc_bytes", "B"},
	{"baseline.uncompressed_run_s", "s"},
	{"trace.run_s", "s"},
	{"trace.untraced_run_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

// metric is one reported number with the sample count behind it.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

// report collects one workload's results.
type report struct {
	workload string
	seed     int64
	trace    bool
	acct     accounting
	tr       tracer
	e2e      []metric
	extra    []metric // end-to-end numbers this workload has but not every workload does
	layer    []metric
	notes    []string
}

func newReport(name string, e *env) *report {
	return &report{workload: name, seed: e.seed, trace: e.trace, tr: tracer{on: e.trace, t0: time.Now()}}
}

func (r *report) correct() bool { return r.acct.failed == 0 }

func (r *report) setE2E(name string, v float64, n int, note string) {
	r.e2e = append(r.e2e, metric{name: name, unit: unitOf(e2eSpecs, name), value: v, n: n, note: note})
}

func (r *report) setExtra(name, unit string, v float64, n int, note string) {
	r.extra = append(r.extra, metric{name: name, unit: unit, value: v, n: n, note: note})
}

func (r *report) setLayer(name string, v float64, n int, note string) {
	r.layer = append(r.layer, metric{name: name, unit: unitOf(layerSpecs, name), value: v, n: n, note: note})
}

func unitOf(specs []spec, name string) string {
	for _, s := range specs {
		if s.name == name {
			return s.unit
		}
	}
	panic("perfbench: metric " + name + " is not in the spec list")
}

// complete checks that the workload reported exactly the set the
// current mode requires, and fills success_frac.
func (r *report) complete() error {
	r.setE2E("success_frac", r.acct.successFrac(), int(r.acct.attempted), "")
	r.setExtra("failed_frac", "ratio", 1-r.acct.successFrac(), int(r.acct.attempted), "failed or refused ÷ attempted")
	specs, got := e2eSpecs, r.e2e
	if r.trace {
		specs, got = layerSpecs, r.layer
	}
	have := map[string]bool{}
	for _, m := range got {
		if have[m.name] {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		have[m.name] = true
	}
	for _, s := range specs {
		if !have[s.name] {
			return fmt.Errorf("metric %s not reported", s.name)
		}
	}
	if !r.trace {
		for _, m := range r.e2e {
			if m.value == 0 && r.acct.attempted > r.acct.failed {
				return fmt.Errorf("end-to-end metric %s is 0", m.name)
			}
		}
	}
	return nil
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed %d  trace %v  attempted %d  failed %d  correct %v\n",
		r.workload, r.seed, r.trace, r.acct.attempted, r.acct.failed, r.correct())
	line := func(m metric) {
		fmt.Fprintf(w, "   %-38s %16.6g %-6s n=%-5d %s\n", m.name, m.value, m.unit, m.n, m.note)
	}
	if !r.trace {
		fmt.Fprintln(w, "  end-to-end (gated):")
		for _, m := range r.e2e {
			line(m)
		}
	}
	fmt.Fprintln(w, "  end-to-end (this workload only, not gated):")
	for _, m := range r.extra {
		line(m)
	}
	if r.trace {
		fmt.Fprintln(w, "  per-layer (traced run):")
		for _, m := range r.layer {
			line(m)
		}
	}
	for _, k := range sortedKeys(r.acct.kinds) {
		fmt.Fprintf(w, "  failures %-20s %d\n", k, r.acct.kinds[k])
	}
	for _, s := range r.acct.details {
		fmt.Fprintf(w, "  failure: %s\n", s)
	}
	for _, s := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", s)
	}
}

// accounting counts operations against failures. Typed engine errors,
// HTTP non-2xx answers, REJECT_* admissions, non-OK terminal job events
// and correctness mismatches all count as failures of the operation
// they belong to.
type accounting struct {
	attempted, failed int64
	kinds             map[string]int64
	details           []string
}

func (a *accounting) attempt() { a.attempted++ }

func (a *accounting) fail(kind, detail string) {
	a.failed++
	if a.kinds == nil {
		a.kinds = map[string]int64{}
	}
	a.kinds[kind]++
	if len(a.details) < 8 {
		a.details = append(a.details, kind+": "+detail)
	}
}

// failErr classifies an engine error by its typed sentinel.
func (a *accounting) failErr(op string, err error) {
	kind := "error"
	switch {
	case errors.Is(err, qcsim.ErrBudgetExceeded):
		kind = "budget_exceeded"
	case errors.Is(err, qcsim.ErrRankDied):
		kind = "rank_died"
	}
	a.fail(kind, op+": "+err.Error())
}

func (a *accounting) successFrac() float64 {
	if a.attempted == 0 {
		return 0
	}
	return float64(a.attempted-a.failed) / float64(a.attempted)
}

// span is one timed call the benchmark made into a layer. Spans of one
// iteration share Iter; Parent is the enclosing span's ID (0 = none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Iter   int     `json:"iter"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. When off it records
// nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// begin opens a span and returns its ID (0 while tracing is off).
func (t *tracer) begin(name string, parent, iter int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Iter: iter, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].End = time.Since(t.t0).Seconds()
	}
}

// add records a span whose bounds were taken elsewhere.
func (t *tracer) add(name string, parent, iter int, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Iter: iter, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	return len(t.spans)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (t *tracer) dump(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
