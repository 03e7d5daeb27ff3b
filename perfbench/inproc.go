package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"time"

	"qcsim"
	"qcsim/circuit"
)

// setupReps is how many set-ups each iteration times.
const setupReps = 3

// minIterations keeps a median meaningful when one iteration is long
// against --seconds.
const minIterations = 3

// engineBlockAmps is the engine's default block size (WithBlockAmps
// unset); the codec probe cuts states into blocks of this many
// amplitudes, as the engine does.
const engineBlockAmps = 4096

// inproc is one workload on the qcsim facade. Every iteration runs a
// fresh instance drawn from the workload seed, so a run's medians cover
// the circuit family rather than hinge on one instance (the codec work
// of QAOA-16, for one, moves by ~15% from graph to graph).
type inproc struct {
	qubits  int
	shots   int
	workers int
	// prepare builds one seeded instance and computes its uncompressed
	// references; none of it is timed.
	prepare func(seed int64) (*instance, error)
}

// instance is one seeded input of a facade workload: how to build its
// circuit and engine, run the timed unit, and check the result.
type instance struct {
	build   func() *circuit.Circuit
	options func(workers int) []qcsim.Option
	// exec runs the timed unit (Run or RunBatch). progress is nil on
	// untraced iterations.
	exec func(ctx context.Context, sim *qcsim.Simulator, c *circuit.Circuit, progress func(qcsim.ProgressEvent)) (runOut, error)
	// check compares the result with the reference; mismatch is "" when
	// it holds.
	check func(out runOut) (fidelity float64, mismatch string)
	// baseline runs the timed unit's circuits uncompressed with
	// WithWorkers(1) and returns the wall time of those runs.
	baseline func() (time.Duration, error)
	// progressProbe, when exec streams no progress (RunBatch), is a solo
	// circuit whose RunProgress a traced iteration times for the
	// first-progress and exec phases.
	progressProbe *circuit.Circuit
}

// runOut summarizes one timed unit. For a batch, counters and
// footprints are summed over the variants (all K states are held at
// once) and the bound is the smallest.
type runOut struct {
	stats      qcsim.Stats
	footprint  int64
	bound      float64
	bytesMoved int64
	sampleFrom []*qcsim.Simulator // the states the iteration samples; the first is checkpointed and probed
}

func runSolo(ctx context.Context, sim *qcsim.Simulator, c *circuit.Circuit, progress func(qcsim.ProgressEvent)) (runOut, error) {
	var res *qcsim.Result
	var err error
	if progress != nil {
		res, err = sim.RunProgress(ctx, c, progress)
	} else {
		res, err = sim.Run(ctx, c)
	}
	if err != nil {
		return runOut{}, err
	}
	return runOut{stats: res.Stats, footprint: res.Footprint, bound: res.FidelityLowerBound,
		bytesMoved: sim.BytesMoved(), sampleFrom: []*qcsim.Simulator{sim}}, nil
}

// refWorkers is the worker count of the correctness references: the
// engine is bit-identical across worker counts, so references use every
// CPU to keep the untimed share of a run small.
const refWorkers = 2

// reference runs c uncompressed and returns the final state, the run's
// wall time, and the simulator (the caller closes it).
func reference(n int, c *circuit.Circuit, workers int) ([]complex128, time.Duration, *qcsim.Simulator, error) {
	sim, err := qcsim.New(n, qcsim.WithUncompressed(true), qcsim.WithWorkers(workers))
	if err != nil {
		return nil, 0, nil, err
	}
	t := time.Now()
	if _, err := sim.Run(context.Background(), c); err != nil {
		sim.Close()
		return nil, 0, nil, err
	}
	d := time.Since(t)
	st, err := sim.FullState()
	if err != nil {
		sim.Close()
		return nil, 0, nil, err
	}
	return st, d, sim, nil
}

// fidelity is |⟨ref|ψ⟩|, the paper's Eq. 9 pure-state fidelity: the
// quantity the Eq. 11 ledger bounds from below. (Its square can fall
// under the ledger when both sit within ~1e-7 of 1.)
func fidelity(ref, psi []complex128) float64 {
	var dot complex128
	for i := range ref {
		dot += cmplx.Conj(ref[i]) * psi[i]
	}
	return cmplx.Abs(dot)
}

func bitIdentical(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// verify checks a final state against its uncompressed reference. While
// the Eq. 11 ledger is still 1 the engine claims a lossless state, which
// must match the reference bit for bit (a rounded inner product of equal
// states can miss 1 by an ulp); below 1, the fidelity must reach it.
func verify(ref, st []complex128, bound float64) (float64, string) {
	f := fidelity(ref, st)
	if bound == 1 {
		if !bitIdentical(ref, st) {
			return f, "state differs from the uncompressed reference while the ledger claims lossless"
		}
		return f, ""
	}
	if !(f >= bound) {
		return f, fmt.Sprintf("fidelity %.15g below its bound %.15g", f, bound)
	}
	return f, ""
}

// checkSolo verifies the run's final state against ref.
func checkSolo(ref []complex128) func(runOut) (float64, string) {
	return func(out runOut) (float64, string) {
		st, err := out.sampleFrom[0].FullState()
		if err != nil {
			return 0, "FullState: " + err.Error()
		}
		return verify(ref, st, out.bound)
	}
}

// iteration is one timed pass through a facade workload.
type iteration struct {
	setups             []float64 // seconds; the last one built the engine that runs
	setup, run, sample time.Duration
	shots              int
	alloc              float64
	out                runOut
	fidelity           float64
}

// iterate builds, runs, checks and samples once. ok is false when any
// operation failed; the failure is already counted.
func (w *inproc) iterate(ctx context.Context, rep *report, inst *instance, i int, traced bool) (it iteration, ok bool) {
	tr := &rep.tr
	tr.on = traced
	runtime.GC()
	root := tr.begin("iteration", 0, i)
	defer tr.end(root)

	opts := inst.options(w.workers)
	// Set-up is sub-millisecond, so each iteration times extra untraced
	// set-ups (build + New + Close) to steady the median.
	for k := 1; k < setupReps; k++ {
		t := time.Now()
		_ = inst.build()
		sim, err := qcsim.New(w.qubits, opts...)
		d := time.Since(t)
		if err != nil {
			rep.acct.attempt()
			rep.acct.failErr("new", err)
			return it, false
		}
		sim.Close()
		it.setups = append(it.setups, d.Seconds())
	}
	t0 := time.Now()
	b := tr.begin("build", root, i)
	c := inst.build()
	tr.end(b)
	buildDur := time.Since(t0)
	if traced {
		// The admission phase qcserve runs before a job: pricing the
		// circuit through the facade without allocating state.
		rep.acct.attempt()
		a := tr.begin("server.admit_s", root, i)
		_, err := qcsim.EstimateCircuit(w.qubits, c, opts...)
		tr.end(a)
		if err != nil {
			rep.acct.failErr("estimate", err)
			return it, false
		}
	}
	rep.acct.attempt()
	t1 := time.Now()
	n := tr.begin("new", root, i)
	sim, err := qcsim.New(w.qubits, opts...)
	tr.end(n)
	it.setup = buildDur + time.Since(t1)
	it.setups = append(it.setups, it.setup.Seconds())
	if err != nil {
		rep.acct.failErr("new", err)
		return it, false
	}
	defer sim.Close()

	var progress func(qcsim.ProgressEvent)
	var first time.Time
	if traced {
		progress = func(qcsim.ProgressEvent) {
			if first.IsZero() {
				first = time.Now()
			}
		}
	}
	r0 := readRuntime()
	tRun := time.Now()
	rs := tr.begin("run", root, i)
	out, err := inst.exec(ctx, sim, c, progress)
	tr.end(rs)
	tEnd := time.Now()
	it.run = tEnd.Sub(tRun)
	it.alloc = readRuntime().sub(r0).allocBytes
	if err != nil {
		rep.acct.failErr("run", err)
		return it, false
	}
	if !first.IsZero() {
		tr.add("server.first_progress_s", rs, i, tRun, first)
		tr.add("server.exec_s", rs, i, first, tEnd)
	} else if traced && inst.progressProbe != nil {
		rep.acct.attempt()
		if err := progressProbe(ctx, tr, w.qubits, opts, inst.progressProbe, i); err != nil {
			rep.acct.failErr("progress probe", err)
			return it, false
		}
	}
	it.out = out
	var mismatch string
	if it.fidelity, mismatch = inst.check(out); mismatch != "" {
		rep.acct.fail("mismatch", mismatch)
		return it, false
	}

	rep.acct.attempt()
	ts := time.Now()
	sp := tr.begin("core.sample_s", root, i)
	var draws [][]uint64
	for _, state := range out.sampleFrom {
		sampler, err := state.Sampler()
		var shots []uint64
		if err == nil {
			shots, err = sampler.Sample(w.shots)
		}
		if err != nil {
			tr.end(sp)
			rep.acct.failErr("sample", err)
			return it, false
		}
		draws = append(draws, shots)
	}
	tr.end(sp)
	it.sample = time.Since(ts)
	for _, shots := range draws {
		if msg := checkShots(shots, w.shots, w.qubits); msg != "" {
			rep.acct.fail("mismatch", msg)
			return it, false
		}
		it.shots += len(shots)
	}

	if traced {
		// The lifecycle phases qcserve wraps around a session: suspend
		// is a checkpoint Save, resume a Load into a fresh engine, and a
		// scrape reads Snapshot.
		rep.acct.attempt()
		var buf bytes.Buffer
		s := tr.begin("server.suspend_s", root, i)
		err := out.sampleFrom[0].Save(&buf)
		tr.end(s)
		if err == nil {
			r := tr.begin("server.resume_s", root, i)
			var resumed *qcsim.Simulator
			if resumed, err = qcsim.New(w.qubits, opts...); err == nil {
				err = resumed.Load(&buf)
				resumed.Close()
			}
			tr.end(r)
		}
		if err != nil {
			rep.acct.failErr("checkpoint", err)
			return it, false
		}
		sc := tr.begin("server.scrape_s", root, i)
		_ = out.sampleFrom[0].Snapshot()
		tr.end(sc)
	}
	return it, true
}

// progressProbe times a solo RunProgress of c on a fresh engine and
// records its first-progress and exec spans.
func progressProbe(ctx context.Context, tr *tracer, qubits int, opts []qcsim.Option, c *circuit.Circuit, i int) error {
	sim, err := qcsim.New(qubits, opts...)
	if err != nil {
		return err
	}
	defer sim.Close()
	var first time.Time
	t0 := time.Now()
	_, err = sim.RunProgress(ctx, c, func(qcsim.ProgressEvent) {
		if first.IsZero() {
			first = time.Now()
		}
	})
	end := time.Now()
	if err != nil {
		return err
	}
	id := tr.add("progress_probe", 0, i, t0, end)
	tr.add("server.first_progress_s", id, i, t0, first)
	tr.add("server.exec_s", id, i, first, end)
	return nil
}

func checkShots(shots []uint64, want, qubits int) string {
	if len(shots) != want {
		return fmt.Sprintf("drew %d shots, asked for %d", len(shots), want)
	}
	for _, s := range shots {
		if s>>uint(qubits) != 0 {
			return fmt.Sprintf("outcome %d outside a %d-qubit register", s, qubits)
		}
	}
	return ""
}

// measure runs the workload for e.seconds and reports it. A traced run
// alternates traced and untraced iterations, so the tracing overhead is
// the difference of their run times, then adds a Workers=1 count pass
// and the codec probe.
func (w *inproc) measure(e *env, rep *report) error {
	ctx := context.Background()
	var setups, runs, tracedRuns, shotRates, allocs, footprints, maxFootprints, bounds, fids []float64
	var busy time.Duration
	jobs := 0
	seeds := rand.New(rand.NewSource(e.seed))
	var first *instance
	start := time.Now()
	for i := 0; i < minIterations || time.Since(start) < e.seconds; i++ {
		rep.tr.on = e.trace
		p := rep.tr.begin("prepare", 0, i)
		inst, err := w.prepare(seeds.Int63())
		rep.tr.end(p)
		if err != nil {
			return fmt.Errorf("preparing instance %d: %w", i, err)
		}
		if first == nil {
			first = inst
		}
		traced := e.trace && i%2 == 1
		it, ok := w.iterate(ctx, rep, inst, i, traced)
		if !ok {
			continue
		}
		jobs++
		busy += it.setup + it.run + it.sample
		if traced {
			tracedRuns = append(tracedRuns, it.run.Seconds())
			continue
		}
		setups = append(setups, it.setups...)
		runs = append(runs, it.run.Seconds())
		shotRates = append(shotRates, float64(it.shots)/it.sample.Seconds())
		allocs = append(allocs, it.alloc)
		footprints = append(footprints, float64(it.out.footprint))
		maxFootprints = append(maxFootprints, float64(it.out.stats.MaxFootprint))
		bounds = append(bounds, it.out.bound)
		fids = append(fids, it.fidelity)
	}
	rep.tr.on = e.trace
	n := len(runs)
	rep.setE2E("setup_s", median(setups), len(setups), "median; circuit build + New")
	rep.setE2E("run_s", median(runs), n, "median; Run/RunBatch call to return")
	rep.setE2E("shots_per_s", median(shotRates), n, fmt.Sprintf("median; Sampler()+Sample(%d) per sampled state", w.shots))
	rep.setE2E("jobs_per_s", float64(jobs)/busy.Seconds(), jobs, "iterations ÷ their setup+run+sample time")
	rep.setE2E("footprint_bytes", median(footprints), n, "median; compressed footprint after the run")
	rep.setE2E("fidelity_bound", median(bounds), n, "median; Eq. 11 ledger")
	rep.setExtra("alloc_bytes", "B", median(allocs), n, "median; Go heap bytes allocated by the run")
	rep.setExtra("peak_footprint_bytes", "B", median(maxFootprints), n, "median; Stats.MaxFootprint")
	rep.setExtra("fidelity", "ratio", median(fids), n, "median; |<ref|psi>| (Eq. 9) against the uncompressed reference")
	if e.trace {
		if err := w.countPass(ctx, rep, first); err != nil {
			return err
		}
		untraced := median(runs)
		if err := reportBaseline(rep, first.baseline); err != nil {
			return err
		}
		rep.setLayer("trace.run_s", median(tracedRuns), len(tracedRuns), "median run_s of traced iterations")
		rep.setLayer("trace.untraced_run_s", untraced, len(runs), "median run_s of untraced iterations")
		rep.setLayer("trace.overhead_s", median(tracedRuns)-untraced, len(tracedRuns), "traced minus untraced run_s")
		for _, name := range []string{"core.sample_s", "server.admit_s", "server.first_progress_s", "server.exec_s",
			"server.suspend_s", "server.resume_s", "server.scrape_s"} {
			d := rep.tr.durations(name)
			rep.setLayer(name, median(d), len(d), "median of traced spans")
		}
		rep.setLayer("server.sample_s", median(rep.tr.durations("core.sample_s")), len(rep.tr.durations("core.sample_s")), "the facade sampler qcserve's sample route calls")
		rep.setLayer("trace.spans", float64(len(rep.tr.spans)), 1, "spans recorded (written under traces/)")
	}
	return rep.complete()
}

// baselineRuns is how many times the traced run times the plain
// baseline; it reports their median.
const baselineRuns = 3

// reportBaseline times the uncompressed single-worker run of the
// workload's circuits, the cost compression is weighed against.
func reportBaseline(rep *report, run func() (time.Duration, error)) error {
	id := rep.tr.begin("baseline", 0, -1)
	defer rep.tr.end(id)
	var ds []float64
	for k := 0; k < baselineRuns; k++ {
		d, err := run()
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		ds = append(ds, d.Seconds())
	}
	rep.setLayer("baseline.uncompressed_run_s", median(ds), len(ds), "median; WithUncompressed(true), WithWorkers(1)")
	return nil
}

// soloBaseline times one uncompressed single-worker run of c.
func soloBaseline(n int, c *circuit.Circuit) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		_, d, sim, err := reference(n, c, 1)
		if sim != nil {
			sim.Close()
		}
		return d, err
	}
}

// countPass runs the run's first instance again on one worker, where the engine's
// counters repeat exactly, and reports the engine layers from its Stats
// plus the Go runtime's cost of that run and the codec probe on its
// final state.
func (w *inproc) countPass(ctx context.Context, rep *report, inst *instance) error {
	runtime.GC()
	id := rep.tr.begin("count_pass", 0, -1)
	defer rep.tr.end(id)
	c := inst.build()
	rep.acct.attempt()
	sim, err := qcsim.New(w.qubits, inst.options(1)...)
	if err != nil {
		rep.acct.failErr("new", err)
		return fmt.Errorf("count pass: %w", err)
	}
	defer sim.Close()
	r0 := readRuntime()
	out, err := inst.exec(ctx, sim, c, nil)
	rt := readRuntime().sub(r0)
	if err != nil {
		rep.acct.failErr("run", err)
		return fmt.Errorf("count pass: %w", err)
	}
	f, mismatch := inst.check(out)
	if mismatch != "" {
		rep.acct.fail("mismatch", "count pass: "+mismatch)
	}
	reportEngine(rep, out.stats, out.bytesMoved, f)
	rep.setLayer("go.gc_cycles", rt.gcCycles, 1, "count pass")
	rep.setLayer("go.gc_cpu_s", rt.gcCPU, 1, "count pass; runtime estimate")
	rep.setLayer("go.alloc_bytes", rt.allocBytes, 1, "count pass")
	st, err := out.sampleFrom[0].FullState()
	if err != nil {
		return fmt.Errorf("count pass: %w", err)
	}
	return probeState(rep, st, out.stats.FinalLevel)
}

// reportEngine reports the engine layers from one Workers=1 run's Stats.
func reportEngine(rep *report, st qcsim.Stats, bytesMoved int64, fid float64) {
	const cpu = "Workers=1 pass; CPU seconds summed over workers"
	const cnt = "Workers=1 pass"
	rep.setLayer("compress.cpu_s", st.CompressTime.Seconds(), 1, cpu)
	rep.setLayer("decompress.cpu_s", st.DecompressTime.Seconds(), 1, cpu)
	rep.setLayer("compress.calls", float64(st.CompressCalls), 1, cnt)
	rep.setLayer("decompress.calls", float64(st.DecompressCalls), 1, cnt)
	rep.setLayer("core.compute_cpu_s", st.ComputeTime.Seconds(), 1, cpu)
	rep.setLayer("core.cache_hit_ratio", ratio(st.CacheHits, st.CacheLookups), 1, cnt+"; hits ÷ lookups")
	rep.setLayer("core.sweep_passes_saved", float64(st.CodecPassesSaved), 1, cnt)
	rep.setLayer("core.memo_passes_shared", float64(st.CodecPassesShared), 1, cnt+"; summed over batch variants")
	rep.setLayer("core.escalations", float64(st.Escalations), 1, cnt)
	rep.setLayer("core.final_level", float64(st.FinalLevel), 1, cnt)
	rep.setLayer("core.max_footprint_bytes", float64(st.MaxFootprint), 1, cnt)
	rep.setLayer("core.fidelity", fid, 1, cnt+"; |<ref|psi>| (Eq. 9)")
	rep.setLayer("blockstore.max_resident_bytes", float64(st.MaxResident), 1, cnt)
	rep.setLayer("blockstore.spill_writes", float64(st.SpillWrites), 1, cnt)
	rep.setLayer("blockstore.spill_reads", float64(st.SpillReads), 1, cnt)
	rep.setLayer("blockstore.prefetch_hit_ratio", ratio(st.PrefetchHits, st.PrefetchHits+st.SpillReads), 1,
		cnt+"; prefetch hits ÷ spilled-block reads")
	rep.setLayer("mpi.comm_cpu_s", st.CommTime.Seconds(), 1, cpu)
	rep.setLayer("mpi.bytes_moved", float64(bytesMoved), 1, cnt)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probeState drives the engine's level-0 codec and its lossy codec over
// a final state. The lossy bound is the one the run ended on, or the
// ladder's first when the run stayed lossless. "zstd-like" is the
// registry's lossless codec at the flate level the engine's level 0
// uses; "xor-c" is the engine's default lossy codec.
func probeState(rep *report, st []complex128, finalLevel int) error {
	bound := qcsim.DefaultErrorLevels[0]
	if finalLevel > 0 {
		bound = qcsim.DefaultErrorLevels[finalLevel-1]
	}
	for _, p := range []struct {
		key, codec string
		opt        qcsim.CodecOptions
	}{
		{"lossless", "zstd-like", qcsim.CodecOptions{Mode: qcsim.CodecLossless}},
		{"lossy", "xor-c", qcsim.CodecOptions{Mode: qcsim.CodecPointwiseRelative, Bound: bound}},
	} {
		rep.acct.attempt()
		id := rep.tr.begin("codec.probe."+p.key, 0, -1)
		res, mismatch, err := codecProbe(p.codec, p.opt, st, engineBlockAmps)
		rep.tr.end(id)
		if err != nil {
			rep.acct.failErr("probe "+p.codec, err)
			return fmt.Errorf("codec probe %s: %w", p.codec, err)
		}
		if mismatch != "" {
			rep.acct.fail("mismatch", mismatch)
		}
		pre := "codec.probe." + p.key + "."
		rep.setLayer(pre+"encode_MBps", res.encMBps, 1, p.codec+"; median pass")
		rep.setLayer(pre+"decode_MBps", res.decMBps, 1, p.codec+"; median pass")
		rep.setLayer(pre+"ratio", res.ratio, 1, p.codec+"; raw ÷ compressed")
		rep.setLayer(pre+"allocs_per_call", res.allocsPerCall, 1, p.codec+"; heap objects per Compress/Decompress")
	}
	rep.setLayer("codec.probe.lossy.bound", bound, 1, "pointwise relative bound probed")
	return nil
}

// runQAOA16: QAOA(16, 3) on two workers, lossless, then 65,536 shots.
func runQAOA16(e *env, rep *report) error {
	const n = 16
	w := &inproc{qubits: n, shots: 65536, workers: 2, prepare: func(seed int64) (*instance, error) {
		c := circuit.QAOA(n, 3, seed)
		ref, _, refSim, err := reference(n, c, refWorkers)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		refSim.Close()
		return &instance{
			build: func() *circuit.Circuit { return circuit.QAOA(n, 3, seed) },
			options: func(workers int) []qcsim.Option {
				return []qcsim.Option{qcsim.WithWorkers(workers), qcsim.WithCache(64), qcsim.WithSeed(seed)}
			},
			exec:     runSolo,
			check:    checkSolo(ref),
			baseline: soloBaseline(n, c),
		}, nil
	}}
	return w.measure(e, rep)
}

// supremacyBudgetFrac is the workload's total memory budget as a share
// of the dense state, 2^(n+4) bytes, split evenly over the ranks.
const supremacyBudgetFrac = 0.3

func runSupremacy16(e *env, rep *report) error {
	w := &inproc{qubits: 16, shots: 65536, workers: 1, prepare: func(seed int64) (*instance, error) {
		return supremacyInstance(seed, supremacyBudgetFrac)
	}}
	return w.measure(e, rep)
}

// supremacyInstance: Supremacy(4, 4, 20) on two ranks under a memory
// budget, checked against the fidelity bound.
func supremacyInstance(seed int64, budgetFrac float64) (*instance, error) {
	const n, ranks = 16, 2
	c := circuit.Supremacy(4, 4, 20, seed)
	ref, _, refSim, err := reference(n, c, refWorkers)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	refSim.Close()
	perRank := int64(budgetFrac * float64(int64(1)<<(n+4)) / ranks)
	return &instance{
		build: func() *circuit.Circuit { return circuit.Supremacy(4, 4, 20, seed) },
		options: func(workers int) []qcsim.Option {
			return []qcsim.Option{qcsim.WithRanks(ranks), qcsim.WithWorkers(workers), qcsim.WithCache(64),
				qcsim.WithMemoryBudget(perRank), qcsim.WithSeed(seed)}
		},
		exec:     runSolo,
		check:    checkSolo(ref),
		baseline: soloBaseline(n, c),
	}, nil
}

// runBatch25: RunBatch of QAOAAnsatz(14, 6) at 25 bindings (the base
// angles and ±π/2 on each of its 12), each variant checked against a
// solo uncompressed run of the same binding: bit-identical state and
// equal MaxCut energy. Every variant is then sampled, so the sampler
// cost averages over 25 states rather than hinging on one. RunBatch
// streams no progress, so traced iterations time the first-progress
// and exec phases on a solo RunProgress of the base binding.
func runBatch25(e *env, rep *report) error {
	w := &inproc{qubits: 14, shots: 2048, workers: 2, prepare: batchInstance}
	return w.measure(e, rep)
}

func batchInstance(seed int64) (*instance, error) {
	const n, p = 14, 6
	base := circuit.QAOAAngles(p, seed)
	bindings := [][]float64{base}
	for i := range base {
		for _, d := range []float64{math.Pi / 2, -math.Pi / 2} {
			v := append([]float64(nil), base...)
			v[i] += d
			bindings = append(bindings, v)
		}
	}
	edges := circuit.RandomRegularGraph(n, 4, seed)
	ansatz := circuit.QAOAAnsatz(n, p, seed)
	bound := make([]*circuit.Circuit, len(bindings))
	refStates := make([][]complex128, len(bindings))
	refEnergy := make([]float64, len(bindings))
	for v, b := range bindings {
		var err error
		if bound[v], err = ansatz.Bind(b); err != nil {
			return nil, err
		}
		st, _, refSim, err := reference(n, bound[v], refWorkers)
		if err != nil {
			return nil, fmt.Errorf("reference %d: %w", v, err)
		}
		refEnergy[v], err = refSim.MaxCutEnergy(edges)
		refSim.Close()
		if err != nil {
			return nil, err
		}
		refStates[v] = st
	}

	var variants []*qcsim.Simulator
	return &instance{
		build: func() *circuit.Circuit { return circuit.QAOAAnsatz(n, p, seed) },
		options: func(workers int) []qcsim.Option {
			return []qcsim.Option{qcsim.WithWorkers(workers), qcsim.WithCache(64), qcsim.WithSeed(seed)}
		},
		exec: func(ctx context.Context, sim *qcsim.Simulator, c *circuit.Circuit, _ func(qcsim.ProgressEvent)) (runOut, error) {
			res, err := sim.RunBatch(ctx, c, bindings)
			if err != nil {
				return runOut{}, err
			}
			variants = sim.BatchVariants()
			out := runOut{bound: 1, sampleFrom: variants}
			for v, r := range res {
				out.stats = out.stats.Add(r.Stats)
				out.footprint += r.Footprint
				out.bound = min(out.bound, r.FidelityLowerBound)
				out.bytesMoved += variants[v].BytesMoved()
			}
			return out, nil
		},
		check: func(out runOut) (float64, string) {
			worst := 1.0
			for v, vs := range variants {
				st, err := vs.FullState()
				if err != nil {
					return 0, "FullState: " + err.Error()
				}
				worst = min(worst, fidelity(refStates[v], st))
				if !bitIdentical(refStates[v], st) {
					return worst, fmt.Sprintf("variant %d state differs from its solo uncompressed run", v)
				}
				en, err := vs.MaxCutEnergy(edges)
				if err != nil {
					return worst, "MaxCutEnergy: " + err.Error()
				}
				if en != refEnergy[v] {
					return worst, fmt.Sprintf("variant %d energy %v, solo uncompressed %v", v, en, refEnergy[v])
				}
			}
			return worst, ""
		},
		progressProbe: bound[0],
		baseline: func() (time.Duration, error) {
			var total time.Duration
			for _, bc := range bound {
				d, err := soloBaseline(n, bc)()
				if err != nil {
					return 0, err
				}
				total += d
			}
			return total, nil
		},
	}, nil
}
