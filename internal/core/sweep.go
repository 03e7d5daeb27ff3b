package core

import (
	"qcsim/internal/quantum"
)

// The sweep scheduler: the paper's cost model (§3.1) pays a full
// decompress → apply → recompress pass over every compressed block for
// every gate, which is why its Table 2 time is dominated by codec work.
// Gate fusion (FuseGates) only merges same-qubit runs; a layer of
// single-qubit gates on different qubits — the common shape of
// Grover/QAOA layers — still pays one codec round trip per gate. But any
// gate whose target and controls all address offset bits acts
// identically on every block, so a run of k such gates can share one
// codec round trip per block: decompress once, apply all k unitaries to
// the scratch buffer, recompress once. Under the lossless codec the
// result is bit-identical to gate-at-a-time execution (decompress ∘
// compress is exact, so eliding the intermediate round trips changes no
// bits); under lossy codecs the state sees FEWER truncations, and the
// fidelity ledger charges one (1-δ) factor per sweep instead of per
// gate — the Eq. 11 bound only tightens.

// sweepsEnabled reports whether the executor may batch block-local
// runs. A live noise channel forces gate-at-a-time execution: the
// depolarizing draw happens after every gate, and an injected Pauli must
// observe the state with the preceding gate already applied. A
// Prob == 0 channel can never fire, so it does not cost the batching.
func (s *Simulator) sweepsEnabled() bool {
	return !s.cfg.DisableSweeps && !s.noiseActive()
}

// sweep executes a block-local sweep of k gates on this rank for every
// variant in a single codec pass per block: decompress once, apply all
// k unitaries in circuit order, recompress once. The block cache is
// keyed on the whole sweep (signature of the full gate run), so the
// §3.4 redundancy shortcut still applies, now amortizing k gates per
// hit. The fidelity ledger and the §3.7 escalation check are charged
// once per sweep — matching the single recompression that actually
// happened — against the sweep's last gate.
func (ls *lockstep) sweep(cs []*quantum.Circuit, sw quantum.Sweep) error {
	k := sw.Len()
	sigs := make([]string, len(cs))
	for v, c := range cs {
		sigs[v] = quantum.SweepSignature(c.Gates[sw.Start:sw.End])
	}
	s0 := ls.sims[0]
	err := ls.blockPass(sigs, sw.End-1, 0, 0, int64(k-1), func(v int, x, _ []float64) {
		s0.applyOffsetGates(cs[v].Gates[sw.Start:sw.End], x)
	})
	if err != nil {
		return err
	}
	for _, rs := range ls.rss {
		rs.stats.Sweeps++
		rs.stats.SweepGates += k
	}
	return nil
}
