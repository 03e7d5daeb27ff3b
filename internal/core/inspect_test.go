package core

import (
	"testing"

	"qcsim/internal/quantum"
)

// TestInspectionFoldsMatchFullState pins eachBlock's bit-identity
// contract: every read-only observable equals a plain fold over
// FullState in global index order, compared with == and no tolerance,
// on a 2-rank state whose qubits span the offset, block and rank
// segments.
func TestInspectionFoldsMatchFullState(t *testing.T) {
	const n = 8
	s := newSim(t, n, 2, 16, nil)
	if err := s.Run(quantum.RandomCircuit(n, 60, 11)); err != nil {
		t.Fatal(err)
	}
	amps, err := s.FullState()
	if err != nil {
		t.Fatal(err)
	}
	prob := func(a complex128) float64 { return real(a)*real(a) + imag(a)*imag(a) }

	var norm float64
	for _, a := range amps {
		norm += real(a) * real(a)
		norm += imag(a) * imag(a)
	}
	if got, err := s.Norm(); err != nil || got != norm {
		t.Fatalf("Norm = %v (%v), fold = %v", got, err, norm)
	}

	// Qubits 0..3 are offset bits, 4..6 block bits, 7 the rank bit.
	for q := 0; q < n; q++ {
		var p float64
		for i, a := range amps {
			if i>>q&1 == 1 {
				p += prob(a)
			}
		}
		if got, err := s.ProbabilityOne(q); err != nil || got != p {
			t.Fatalf("ProbabilityOne(%d) = %v (%v), fold = %v", q, got, err, p)
		}
	}

	for _, pair := range [][2]int{{0, 1}, {2, 5}, {4, 7}, {7, 3}} {
		a, b := pair[0], pair[1]
		var joint [4]float64
		for i, amp := range amps {
			joint[(i>>a&1)<<1|i>>b&1] += prob(amp)
		}
		want := joint[0] + joint[3] - joint[1] - joint[2]
		if got, err := s.ExpectationZZ(a, b); err != nil || got != want {
			t.Fatalf("ExpectationZZ(%d,%d) = %v (%v), fold = %v", a, b, got, err, want)
		}
	}

	zs := []ZTerm{{Q: 1, W: 0.5}, {Q: 6, W: -1.25}}
	zzs := []ZZTerm{{A: 0, B: 7, W: 2}, {A: 3, B: 4, W: -0.75}}
	var acc float64
	for i, a := range amps {
		p := prob(a)
		if p == 0 {
			continue
		}
		var w float64
		for _, t := range zs {
			if i>>t.Q&1 == 0 {
				w += t.W
			} else {
				w -= t.W
			}
		}
		for _, t := range zzs {
			if (i>>t.A^i>>t.B)&1 == 0 {
				w += t.W
			} else {
				w -= t.W
			}
		}
		acc += p * w
	}
	if got, err := s.DiagonalExpectation(zs, zzs); err != nil || got != acc {
		t.Fatalf("DiagonalExpectation = %v (%v), fold = %v", got, err, acc)
	}
}
