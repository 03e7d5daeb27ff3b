package harness

import (
	"fmt"
	"io"
	"time"

	"qcsim/internal/core"
	"qcsim/internal/mps"
	"qcsim/internal/quantum"
)

// The crossover experiment is the paper's §2.2 comparison — compressed
// full-state simulation vs tensor networks — run as a reproducible
// artifact. It sweeps the entanglement depth of a brickwork circuit and
// records, at every depth, what each backend pays in time, memory, and
// fidelity. At shallow depth the MPS wins by orders of magnitude in
// memory (polynomial vs 2^n); as the circuit's Schmidt rank outgrows
// the bond-dimension cap χ, the MPS starts truncating (its fidelity
// ledger drops below 1) while the compressed engine keeps an exact
// state — the crossover the paper argues motivates full-state methods.

// CrossoverRow is one entanglement depth of the sweep, with both
// backends' costs side by side.
type CrossoverRow struct {
	Depth  int `csv:"depth"`
	Qubits int `csv:"qubits"`
	Gates  int `csv:"gates"`
	// EstBond is the planner's structural bond-dimension estimate
	// (quantum.EstimateBondDim); Auto is the backend an auto simulator
	// with this χ budget would pick.
	EstBond int    `csv:"est_bond"`
	Auto    string `csv:"auto_picks"`
	// MPS backend costs (zero values when the sweep is restricted to
	// the compressed backend).
	MPSTime     time.Duration `csv:"mps_seconds"`
	MPSMem      int64         `csv:"mps_bytes"`
	MPSFidelity float64       `csv:"mps_fidelity"`
	MPSMaxBond  int           `csv:"mps_max_bond"`
	// Compressed backend costs.
	CompTime     time.Duration `csv:"compressed_seconds"`
	CompMem      int64         `csv:"compressed_bytes"`
	CompFidelity float64       `csv:"compressed_fidelity"`
	// TimeWinner names the faster backend at full fidelity on both
	// sides, or the only one run; "compressed (fidelity)" marks depths
	// where the MPS was faster but truncating.
	TimeWinner string `csv:"winner"`
}

// CrossoverResults sweeps opt.CrossoverDepths on a brickwork circuit of
// opt.CrossoverQubits qubits, running the backends opt.Backend selects
// ("mps", "compressed", or both for anything else).
func CrossoverResults(opt Options) ([]CrossoverRow, error) {
	n := opt.CrossoverQubits
	chi := opt.BondDim
	runMPS := opt.Backend != "compressed"
	runComp := opt.Backend != "mps"
	var rows []CrossoverRow
	for _, depth := range opt.CrossoverDepths {
		cir := quantum.Brickwork(n, depth, 1789+int64(depth))
		row := CrossoverRow{
			Depth:   depth,
			Qubits:  n,
			Gates:   len(cir.Gates),
			EstBond: quantum.EstimateBondDim(cir),
		}
		// Mirror the facade's auto rule: MPS-runnable gates AND the
		// bond estimate within budget (brickwork is always runnable,
		// but the column must not claim more than the facade would).
		row.Auto = "compressed"
		if ok, _ := quantum.MPSCompatible(cir); ok && row.EstBond <= chi {
			row.Auto = "mps"
		}

		if runMPS {
			st, err := mps.New(n, chi)
			if err != nil {
				return nil, fmt.Errorf("crossover depth %d: %w", depth, err)
			}
			start := time.Now()
			if err := st.ApplyCircuit(cir); err != nil {
				return nil, fmt.Errorf("crossover depth %d (mps): %w", depth, err)
			}
			row.MPSTime = time.Since(start)
			row.MPSMem = st.MemoryBytes()
			row.MPSFidelity = st.FidelityLowerBound()
			row.MPSMaxBond = st.MaxBond()
		}

		if runComp {
			s, err := core.New(core.Config{
				Qubits:    n,
				Ranks:     1,
				BlockAmps: opt.BlockAmps,
				Workers:   opt.Workers,
				Seed:      7,
			})
			if err != nil {
				return nil, fmt.Errorf("crossover depth %d: %w", depth, err)
			}
			start := time.Now()
			if err := s.Run(cir); err != nil {
				return nil, fmt.Errorf("crossover depth %d (compressed): %w", depth, err)
			}
			row.CompTime = time.Since(start)
			row.CompMem = s.CompressedFootprint()
			row.CompFidelity = s.FidelityLowerBound()
		}

		switch {
		case runMPS && !runComp:
			row.TimeWinner = "mps"
		case runComp && !runMPS:
			row.TimeWinner = "compressed"
		case row.MPSTime <= row.CompTime && row.MPSFidelity >= 0.9999:
			row.TimeWinner = "mps"
		case row.MPSTime > row.CompTime:
			row.TimeWinner = "compressed"
		default:
			row.TimeWinner = "compressed (fidelity)"
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runCrossover(w io.Writer, opt Options) error {
	header(w, "Crossover: compressed full-state vs MPS over entanglement depth (§2.2)")
	rows, err := CrossoverResults(opt)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "depth\tgates\test χ\tauto picks\tmps time\tmps mem\tmps fidelity\tmax bond\tcomp time\tcomp mem\twinner")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%v\t%d\t%.4f\t%d\t%v\t%d\t%s\n",
			r.Depth, r.Gates, r.EstBond, r.Auto,
			r.MPSTime.Round(time.Microsecond), r.MPSMem, r.MPSFidelity, r.MPSMaxBond,
			r.CompTime.Round(time.Microsecond), r.CompMem, r.TimeWinner)
	}
	tw.Flush()
	fmt.Fprintf(w, "\n(%d qubits, bond-dimension cap χ=%d; mps fidelity < 1 marks truncating depths)\n",
		opt.CrossoverQubits, opt.BondDim)
	return nil
}
