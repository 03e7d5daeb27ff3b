package core

// FidelityLowerBound returns the running lower bound on the simulation
// fidelity, Π(1-δᵢ) over all gates executed so far (paper Eq. 11): each
// gate contributes the loosest error bound any rank used while executing
// it, or nothing when every rank was still lossless.
func (s *Simulator) FidelityLowerBound() float64 { return s.ledger }

// FidelityBound computes the paper's Eq. 11 analytically for a given
// sequence of per-gate error bounds (0 = lossless gate). The Fig. 6
// curves are FidelityBound over constant-bound gate sequences.
func FidelityBound(gateBounds []float64) float64 {
	f := 1.0
	for _, d := range gateBounds {
		f *= 1 - d
	}
	return f
}

// FidelityCurve returns Eq. 11 evaluated after 1..gates gates at a
// constant per-gate bound δ — one Fig. 6 series.
//
//qclint:allow deadexport TestFidelityCurveMatchesClosedForm and BenchmarkFig6FidelityBound use it
func FidelityCurve(delta float64, gates int) []float64 {
	out := make([]float64, gates)
	f := 1.0
	for i := 0; i < gates; i++ {
		f *= 1 - delta
		out[i] = f
	}
	return out
}
