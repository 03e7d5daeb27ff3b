package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// State is the dense reference state vector: the uncompressed
// Schrödinger substrate (the Intel-QS baseline of the paper) used to
// validate the compressed engine and to measure true fidelity at test
// scales.
type State struct {
	N    int
	Amps []complex128
}

// NewState returns |0...0⟩ on n qubits.
func NewState(n int) *State {
	if n < 1 || n > 30 {
		panic(fmt.Sprintf("quantum: dense state of %d qubits unsupported", n))
	}
	amps := make([]complex128, 1<<uint(n))
	amps[0] = 1
	return &State{N: n, Amps: amps}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{N: s.N, Amps: make([]complex128, len(s.Amps))}
	copy(c.Amps, s.Amps)
	return c
}

// ApplyGate applies one unitary gate in place (paper Eq. 6/7).
// Measurement gates require ApplyCircuitRng.
func (s *State) ApplyGate(g Gate) {
	if g.Kind == KindMeasure {
		panic("quantum: ApplyGate cannot measure; use ApplyCircuitRng")
	}
	t := g.Target
	mask := uint64(1) << uint(t)
	var ctrlMask uint64
	for _, c := range g.Controls {
		ctrlMask |= 1 << uint(c)
	}
	u := g.U
	n := uint64(len(s.Amps))
	for i := uint64(0); i < n; i++ {
		if i&mask != 0 || i&ctrlMask != ctrlMask {
			continue
		}
		j := i | mask
		a0, a1 := s.Amps[i], s.Amps[j]
		s.Amps[i] = u[0][0]*a0 + u[0][1]*a1
		s.Amps[j] = u[1][0]*a0 + u[1][1]*a1
	}
}

// ApplyCircuit applies every gate of c; it panics on measurement gates
// (use ApplyCircuitRng for circuits with intermediate measurement).
func (s *State) ApplyCircuit(c *Circuit) {
	for _, g := range c.Gates {
		s.ApplyGate(g)
	}
}

// ApplyCircuitRng applies every gate, resolving measurements with rng.
// It returns the measurement outcomes in order.
func (s *State) ApplyCircuitRng(c *Circuit, rng *rand.Rand) []int {
	var outcomes []int
	for _, g := range c.Gates {
		if g.Kind == KindMeasure {
			outcomes = append(outcomes, s.Measure(g.Target, rng))
			continue
		}
		s.ApplyGate(g)
	}
	return outcomes
}

// ProbabilityOne returns P(qubit q = 1).
func (s *State) ProbabilityOne(q int) float64 {
	mask := uint64(1) << uint(q)
	var p float64
	for i, a := range s.Amps {
		if uint64(i)&mask != 0 {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// Measure collapses qubit q, returning the outcome (0 or 1).
func (s *State) Measure(q int, rng *rand.Rand) int {
	p1 := s.ProbabilityOne(q)
	outcome := 0
	if rng.Float64() < p1 {
		outcome = 1
	}
	s.Collapse(q, outcome, p1)
	return outcome
}

// Collapse projects qubit q onto outcome and renormalizes; p1 is the
// pre-measured P(q=1).
func (s *State) Collapse(q, outcome int, p1 float64) {
	mask := uint64(1) << uint(q)
	keep := p1
	if outcome == 0 {
		keep = 1 - p1
	}
	if keep <= 0 {
		panic(fmt.Sprintf("quantum: collapsing qubit %d onto impossible outcome %d", q, outcome))
	}
	scale := complex(1/math.Sqrt(keep), 0)
	for i := range s.Amps {
		bit := 0
		if uint64(i)&mask != 0 {
			bit = 1
		}
		if bit == outcome {
			s.Amps[i] *= scale
		} else {
			s.Amps[i] = 0
		}
	}
}

// Norm returns Σ|aᵢ|² (1 for a valid state).
func (s *State) Norm() float64 {
	var n float64
	for _, a := range s.Amps {
		n += real(a)*real(a) + imag(a)*imag(a)
	}
	return n
}

// Probability returns |⟨i|ψ⟩|².
func (s *State) Probability(i uint64) float64 {
	a := s.Amps[i]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Fidelity returns |⟨a|b⟩| — the paper's Eq. 9 pure-state fidelity.
//
//qclint:allow deadexport TestFidelity and the fusion and builder tests compare states with it
func Fidelity(a, b *State) float64 {
	if a.N != b.N {
		panic("quantum: fidelity of mismatched states")
	}
	var dot complex128
	for i := range a.Amps {
		dot += cmplx.Conj(a.Amps[i]) * b.Amps[i]
	}
	return cmplx.Abs(dot)
}

// FidelityVec is Fidelity over raw amplitude slices.
func FidelityVec(a, b []complex128) float64 {
	if len(a) != len(b) {
		panic("quantum: fidelity of mismatched vectors")
	}
	var dot complex128
	for i := range a {
		dot += cmplx.Conj(a[i]) * b[i]
	}
	return cmplx.Abs(dot)
}

// Sample draws `shots` measurement outcomes of the full register without
// collapsing the state.
func (s *State) Sample(rng *rand.Rand, shots int) []uint64 {
	// Cumulative distribution walk per shot (test scales only).
	out := make([]uint64, shots)
	for k := 0; k < shots; k++ {
		r := rng.Float64()
		var acc float64
		for i, a := range s.Amps {
			acc += real(a)*real(a) + imag(a)*imag(a)
			if r < acc {
				out[k] = uint64(i)
				break
			}
		}
	}
	return out
}
