package core

import "fmt"

// Pauli-Z expectation values over the compressed state. These are the
// observables variational workloads (QAOA, VQE) read out: ⟨Z_q⟩ and
// two-point correlators ⟨Z_a Z_b⟩, from which MAXCUT energies follow
// without sampling.

// ExpectationZ returns ⟨Z_q⟩ = P(q=0) - P(q=1).
func (s *Simulator) ExpectationZ(q int) (float64, error) {
	p1, err := s.ProbabilityOne(q)
	if err != nil {
		return 0, err
	}
	return 1 - 2*p1, nil
}

// ExpectationZZ returns ⟨Z_a Z_b⟩: +1 weight where the bits agree, -1
// where they differ.
func (s *Simulator) ExpectationZZ(a, b int) (float64, error) {
	joint, err := s.jointDistribution(a, b)
	if err != nil {
		return 0, err
	}
	return joint[0] + joint[3] - joint[1] - joint[2], nil
}

// ZTerm is one weighted single-qubit Pauli-Z term W·Z_Q of a diagonal
// observable.
type ZTerm struct {
	Q int
	W float64
}

// ZZTerm is one weighted two-qubit correlator W·Z_A·Z_B.
type ZZTerm struct {
	A, B int
	W    float64
}

// DiagonalExpectation evaluates Σ W·⟨Z_Q⟩ + Σ W·⟨Z_A Z_B⟩ in a single
// decode pass over the compressed blocks, instead of one pass per term
// the way chained ExpectationZ/ExpectationZZ calls would. Gradient
// evaluation reads one energy per variant of a parameter-shift batch,
// so the readout must not itself cost O(terms) codec sweeps.
//
// Like ExpectationZZ, the value is computed against the stored state
// as-is (no renormalization of lossy norm drift).
func (s *Simulator) DiagonalExpectation(zs []ZTerm, zzs []ZZTerm) (float64, error) {
	for _, t := range zs {
		if t.Q < 0 || t.Q >= s.cfg.Qubits {
			return 0, fmt.Errorf("core: invalid qubit %d in Z term", t.Q)
		}
	}
	for _, t := range zzs {
		if t.A < 0 || t.A >= s.cfg.Qubits || t.B < 0 || t.B >= s.cfg.Qubits || t.A == t.B {
			return 0, fmt.Errorf("core: invalid qubit pair (%d, %d) in ZZ term", t.A, t.B)
		}
	}
	var acc float64
	err := s.eachBlock(nil, func(base uint64, amps []float64) {
		for o := 0; o < len(amps)/2; o++ {
			re, im := amps[2*o], amps[2*o+1]
			p := re*re + im*im
			if p == 0 {
				continue
			}
			idx := base + uint64(o)
			var w float64
			for _, t := range zs {
				if idx>>uint(t.Q)&1 == 0 {
					w += t.W
				} else {
					w -= t.W
				}
			}
			for _, t := range zzs {
				if (idx>>uint(t.A)^idx>>uint(t.B))&1 == 0 {
					w += t.W
				} else {
					w -= t.W
				}
			}
			acc += p * w
		}
	})
	if err != nil {
		return 0, err
	}
	return acc, nil
}

// CutEdge is an undirected graph edge for MaxCutEnergy.
type CutEdge struct{ U, V int }

// MaxCutEnergy returns the expected cut value Σ_edges (1 - ⟨Z_u Z_v⟩)/2
// of the current state — the QAOA objective.
func (s *Simulator) MaxCutEnergy(edges []CutEdge) (float64, error) {
	var sum float64
	for _, e := range edges {
		if e.U == e.V {
			return 0, fmt.Errorf("core: self-loop edge (%d,%d)", e.U, e.V)
		}
		zz, err := s.ExpectationZZ(e.U, e.V)
		if err != nil {
			return 0, err
		}
		sum += (1 - zz) / 2
	}
	return sum, nil
}
