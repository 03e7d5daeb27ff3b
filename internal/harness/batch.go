package harness

import (
	"fmt"
	"io"
	"math"
	"time"

	"qcsim/internal/core"
	"qcsim/internal/quantum"
)

// The batch experiment measures what variant-batched execution saves: a
// parameter-shift evaluation batch (the base binding plus ±π/2 shifts
// of the trailing gate occurrences — the mixer layer, whose variants
// share the longest common prefix) run once through core.RunBatch, vs
// the same K circuits run sequentially on fresh simulators. The
// content-addressed batch cache decompresses and recompresses each
// distinct block blob once per pass instead of once per variant, so the
// run-phase codec calls per variant drop in proportion to how long the
// variants stay undiverged.

// BatchRow is one workload measurement of the variant-batching
// experiment.
type BatchRow struct {
	Benchmark string `csv:"benchmark"`
	Qubits    int    `csv:"qubits"`
	// Gates is the per-variant gate count (all variants share a shape).
	Gates int `csv:"gates"`
	// Variants is the batch width K = 1 base + 2·shifted occurrences.
	Variants int `csv:"variants"`

	// CodecCallsSolo and CodecCallsBatch count run-phase
	// compress+decompress invocations (initialization excluded): the K
	// sequential runs summed, and the one lockstep batch.
	CodecCallsSolo  int64 `csv:"codec_calls_solo"`
	CodecCallsBatch int64 `csv:"codec_calls_batch"`
	// PerVariantSolo/Batch are the same counts divided by K.
	PerVariantSolo  float64 `csv:"per_variant_solo"`
	PerVariantBatch float64 `csv:"per_variant_batch"`
	// Reduction is CodecCallsSolo / CodecCallsBatch — deterministic at
	// the single-worker configuration this experiment pins.
	Reduction float64 `csv:"reduction"`
	// PassesShared counts codec passes served from the batch cache
	// instead of re-run (summed over variants).
	PassesShared int64 `csv:"passes_shared"`

	ElapsedSolo  time.Duration `csv:"elapsed_solo_seconds"`
	ElapsedBatch time.Duration `csv:"elapsed_batch_seconds"`
}

// batchWorkloads builds the parameterized ansatz workloads: the QAOA
// MAXCUT ansatz at the largest Table 2 width, and the hardware-efficient
// VQE ansatz at the same width.
func batchWorkloads(opt Options) []struct {
	name   string
	ansatz *quantum.Circuit
	values []float64
} {
	var n int
	for _, q := range opt.QAOAQubits {
		if q > n {
			n = q
		}
	}
	vqe := quantum.VQEAnsatz(n, 1)
	vqeVals := make([]float64, vqe.NumParams())
	for i := range vqeVals {
		vqeVals[i] = 0.1 * float64(i+1)
	}
	return []struct {
		name   string
		ansatz *quantum.Circuit
		values []float64
	}{
		{fmt.Sprintf("QAOA-%dq", n), quantum.QAOAAnsatz(n, 1, 2020), quantum.QAOAAngles(1, 2020)},
		{fmt.Sprintf("VQE-%dq", n), vqe, vqeVals},
	}
}

// batchCircuits binds the parameter-shift schedule: the base binding
// first, then the ±π/2 pair for each of the LAST `shifts` parametric
// occurrences. Trailing occurrences (QAOA's mixer layer) are the ones
// whose shifted variants share the longest prefix with the base run —
// the regime the batch cache exists for; shifting the leading
// occurrences instead diverges the variants immediately and shares
// almost nothing.
func batchCircuits(ansatz *quantum.Circuit, values []float64, shifts int) ([]*quantum.Circuit, error) {
	occs := ansatz.ParamOccurrences()
	if shifts > len(occs) {
		shifts = len(occs)
	}
	circuits := make([]*quantum.Circuit, 0, 1+2*shifts)
	base, err := ansatz.Bind(values)
	if err != nil {
		return nil, err
	}
	circuits = append(circuits, base)
	for i := 0; i < shifts; i++ {
		occ := occs[len(occs)-1-i]
		plus, err := ansatz.BindShift(values, occ.Gate, math.Pi/2)
		if err != nil {
			return nil, err
		}
		minus, err := ansatz.BindShift(values, occ.Gate, -math.Pi/2)
		if err != nil {
			return nil, err
		}
		circuits = append(circuits, plus, minus)
	}
	return circuits, nil
}

// BatchResults runs each workload's parameter-shift schedule twice —
// K sequential solo runs, then one lockstep RunBatch — and reports the
// codec-call reduction. Both sides run single-worker so every counter
// is deterministic (the batch cache's hit pattern is scheduling-free at
// one worker), and variant v carries VariantSeed(seed, v) on both sides
// so the amplitudes are bit-identical pair by pair.
func BatchResults(opt Options) ([]BatchRow, error) {
	const seed = 7
	var rows []BatchRow
	for _, wl := range batchWorkloads(opt) {
		circuits, err := batchCircuits(wl.ansatz, wl.values, opt.BatchShifts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		k := len(circuits)
		cfg := core.Config{
			Qubits:        wl.ansatz.N,
			Ranks:         1,
			BlockAmps:     opt.BlockAmps,
			Workers:       1,
			Seed:          seed,
			DisableSweeps: opt.DisableSweeps,
		}

		// K sequential runs on fresh simulators.
		var callsSolo int64
		startSolo := time.Now()
		for v, c := range circuits {
			scfg := cfg
			scfg.Seed = core.VariantSeed(seed, v)
			s, err := core.New(scfg)
			if err != nil {
				return nil, err
			}
			base := s.Stats()
			if err := s.Run(c); err != nil {
				s.Close()
				return nil, fmt.Errorf("%s solo variant %d: %w", wl.name, v, err)
			}
			st := s.Stats()
			callsSolo += (st.CompressCalls - base.CompressCalls) +
				(st.DecompressCalls - base.DecompressCalls)
			s.Close()
		}
		elapsedSolo := time.Since(startSolo)

		// One lockstep batch: K clones of one parent, run together.
		parent, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		sims := make([]*core.Simulator, k)
		bases := make([]core.Stats, k)
		startBatch := time.Now()
		for v := range sims {
			clone, err := parent.Clone(core.VariantSeed(seed, v))
			if err != nil {
				return nil, err
			}
			sims[v] = clone
			bases[v] = clone.Stats()
		}
		runErr := core.RunBatch(sims, circuits, core.RunControl{})
		elapsedBatch := time.Since(startBatch)
		var callsBatch, shared int64
		for v, s := range sims {
			st := s.Stats()
			callsBatch += (st.CompressCalls - bases[v].CompressCalls) +
				(st.DecompressCalls - bases[v].DecompressCalls)
			shared += st.CodecPassesShared
			s.Close()
		}
		parent.Close()
		if runErr != nil {
			return nil, fmt.Errorf("%s batch: %w", wl.name, runErr)
		}

		row := BatchRow{
			Benchmark:       wl.name,
			Qubits:          wl.ansatz.N,
			Gates:           len(circuits[0].Gates),
			Variants:        k,
			CodecCallsSolo:  callsSolo,
			CodecCallsBatch: callsBatch,
			PerVariantSolo:  float64(callsSolo) / float64(k),
			PerVariantBatch: float64(callsBatch) / float64(k),
			PassesShared:    shared,
			ElapsedSolo:     elapsedSolo,
			ElapsedBatch:    elapsedBatch,
		}
		if callsBatch > 0 {
			row.Reduction = float64(callsSolo) / float64(callsBatch)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runBatchExp(w io.Writer, opt Options) error {
	header(w, "Variant batching: lockstep parameter-shift batch vs K sequential runs")
	rows, err := BatchResults(opt)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "benchmark\tqubits\tgates\tvariants\tcodec calls (solo×K)\tcodec calls (batch)\tper-variant solo\tper-variant batch\treduction\tpasses shared\ttime solo\ttime batch")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.1fx\t%d\t%v\t%v\n",
			r.Benchmark, r.Qubits, r.Gates, r.Variants,
			r.CodecCallsSolo, r.CodecCallsBatch,
			r.PerVariantSolo, r.PerVariantBatch, r.Reduction, r.PassesShared,
			r.ElapsedSolo.Round(time.Millisecond), r.ElapsedBatch.Round(time.Millisecond))
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(amplitudes bit-identical batch vs solo, variant by variant; the reduction is codec work the batch cache deduplicated)")
	return nil
}
