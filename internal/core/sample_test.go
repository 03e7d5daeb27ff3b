package core

import (
	"bytes"
	"compress/flate"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"qcsim/internal/compress"
	"qcsim/internal/compress/lossless"
	"qcsim/internal/quantum"
)

// linearScanSample reimplements the pre-streaming Sample path as the
// reference for the bit-identity property: materialize the full vector,
// then compare each raw uniform draw against the un-normalized running
// mass in global index order — including the fall-through-to-0 bug the
// streaming sampler fixes, which is exactly what the bias regression
// test below exercises.
func linearScanSample(t *testing.T, s *Simulator, rng *rand.Rand, shots int) []uint64 {
	t.Helper()
	amps, err := s.FullState()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, shots)
	for k := range out {
		r := rng.Float64()
		var acc float64
		for i, a := range amps {
			acc += real(a)*real(a) + imag(a)*imag(a)
			if r < acc {
				out[k] = uint64(i)
				break
			}
		}
	}
	return out
}

// TestSamplerMatchesLinearScan: for the same seed the streaming sampler
// must select the same outcomes as the old full-vector scan, across the
// target-segment geometries, worker counts, and block storage codecs
// (raw, flate, flate+shuffle) — the property that gated swapping the
// Sample implementation.
func TestSamplerMatchesLinearScan(t *testing.T) {
	codecs := []struct {
		name  string
		extra func(*Config)
	}{
		{"lossless", nil},
		{"uncompressed", func(c *Config) { c.Uncompressed = true }},
		// A tight spill RAM budget forces the sampler's sorted-draw
		// prefetch path: same outcomes through the tiered store.
		{"spill", func(c *Config) {
			c.SpillDir = t.TempDir()
			c.SpillRAMBudget = 512
		}},
	}
	// A Hadamard layer plus a random tail: spreads mass across every
	// block while mixing single-qubit, cross-block, and cross-rank gates.
	cir := quantum.RandomCircuit(8, 24, 7)
	for _, geo := range geometries {
		for _, workers := range []int{1, 3} {
			for _, codec := range codecs {
				s := newSim(t, 8, geo.ranks, geo.blockAmps, func(c *Config) {
					c.Workers = workers
					if codec.extra != nil {
						codec.extra(c)
					}
				})
				if err := s.Run(cir); err != nil {
					t.Fatal(err)
				}
				const shots = 64
				ref := linearScanSample(t, s, rand.New(rand.NewSource(42)), shots)
				got, err := s.Sample(rand.New(rand.NewSource(42)), shots)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s/workers=%d/%s: shot %d: streaming %d, linear scan %d",
							geo.name, workers, codec.name, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestSamplerMatchesSampleStream: Sample with a nil rng must keep using
// the simulator's dedicated seeded sampling stream across calls, as the
// old path did.
func TestSamplerMatchesSampleStream(t *testing.T) {
	mk := func() *Simulator {
		s := newSim(t, 6, 1, 8, nil)
		if err := s.Run(quantum.GHZ(6)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	av1, err := a.Sample(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	av2, err := a.Sample(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	bv, err := b.Sample(nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bv {
		var want uint64
		if i < 10 {
			want = av1[i]
		} else {
			want = av2[i-10]
		}
		if bv[i] != want {
			t.Fatalf("shot %d: split calls drew %d, single call %d", i, want, bv[i])
		}
	}
}

// oddSupportLossyState builds a state whose support is exactly the odd
// basis indices (X on qubit 0, H everywhere else) under a deliberately
// coarse lossy codec, so the compressed norm lands well below 1 while
// the amplitude of |0...0⟩ stays exactly zero. Any sampled even index —
// in particular 0 — can only come from the fall-through bug.
func oddSupportLossyState(t *testing.T) *Simulator {
	t.Helper()
	s := newSim(t, 6, 1, 8, func(c *Config) {
		c.MemoryBudget = 1 // escalate at the first gate boundary
		c.ErrorLevels = []float64{0.4}
	})
	c := quantum.NewCircuit(6).X(0)
	for q := 1; q < 6; q++ {
		c.H(q)
	}
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	// Validate the scenario really exercises the bias: mass must have
	// been shed, and index 0 must carry none of it.
	norm, err := s.Norm()
	if err != nil {
		t.Fatal(err)
	}
	if norm >= 0.99 {
		t.Fatalf("lossy codec shed no mass (norm %v); bias scenario void", norm)
	}
	if a0, err := s.Amplitude(0); err != nil || a0 != 0 {
		t.Fatalf("amplitude(0) = %v, %v; want exactly 0", a0, err)
	}
	return s
}

// TestSampleLossyNormBiasFixed is the regression test for the
// fall-through bias: under a lossy codec the old linear scan resolved
// every draw past the accumulated (sub-1) mass to basis state 0,
// inflating |0...0⟩ in every lossy histogram. The reference
// implementation must reproduce that bias on this state (proving the
// scenario bites), and the streaming sampler must be structurally free
// of it: normalized draws can never land past the total mass.
func TestSampleLossyNormBiasFixed(t *testing.T) {
	s := oddSupportLossyState(t)
	const shots = 512
	ref := linearScanSample(t, s, rand.New(rand.NewSource(11)), shots)
	biased := 0
	for _, v := range ref {
		if v%2 == 0 {
			biased++
		}
	}
	if biased == 0 {
		t.Fatal("pre-fix reference produced no biased outcomes; scenario does not exercise the bug")
	}
	got, err := s.Sample(rand.New(rand.NewSource(11)), shots)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v%2 == 0 {
			t.Fatalf("shot %d: sampled even index %d, which has zero amplitude (lossy fall-through bias)", i, v)
		}
	}
	sp, err := s.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	if tm := sp.TotalMass(); tm >= 0.99 || tm <= 0 {
		t.Fatalf("TotalMass = %v, want the shed-mass norm in (0, 0.99)", tm)
	}
}

// TestSamplerStaleness: a Sampler is bound to the state it was built
// from; every mutation route (Run, Reset, Load) must invalidate it.
func TestSamplerStaleness(t *testing.T) {
	s := newSim(t, 6, 2, 8, nil)
	if err := s.Run(quantum.GHZ(6)); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := s.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	mutate := []struct {
		name string
		do   func() error
	}{
		{"run", func() error { return s.Run(quantum.NewCircuit(6).H(0)) }},
		{"reset", s.Reset},
		{"load", func() error { return s.Load(bytes.NewReader(ckpt.Bytes())) }},
	}
	for _, m := range mutate {
		sp, err := s.NewSampler()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.Sample(nil, 4); err != nil {
			t.Fatalf("%s: fresh sampler failed: %v", m.name, err)
		}
		if err := m.do(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if _, err := sp.Sample(nil, 4); !errors.Is(err, ErrSamplerStale) {
			t.Fatalf("%s: sampled from a stale sampler (err %v)", m.name, err)
		}
	}
}

// TestSamplerRejectsBadInput: negative shots and zero-mass states must
// error, not panic or mislead.
func TestSamplerRejectsBadInput(t *testing.T) {
	s := newSim(t, 4, 1, 4, nil)
	if _, err := s.Sample(nil, -1); err == nil {
		t.Fatal("negative shot count accepted")
	}
	sp, err := s.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	if out, err := sp.Sample(nil, 0); err != nil || len(out) != 0 {
		t.Fatalf("zero shots: %v, %v", out, err)
	}
	// Corrupt a block: the CDF build must surface the codec error.
	if err := s.ranks[0].store.Put(1, []byte{0xFF, 0x01}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewSampler(); err == nil {
		t.Fatal("sampler built over a corrupt block")
	}
}

// TestSamplerLargeRegister: the point of the streaming path — drawing
// shots from a register whose state vector (4 GB at 28 qubits) could
// never be materialized. |0...0⟩ and a far-up basis state must both
// sample exactly, through compressed blocks alone.
func TestSamplerLargeRegister(t *testing.T) {
	s, err := New(Config{Qubits: 28, Ranks: 1, BlockAmps: 4096, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const target = uint64(1)<<27 | 12345
	if err := s.SetBasisState(target); err != nil {
		t.Fatal(err)
	}
	sp, err := s.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	out, err := sp.Sample(nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != target {
			t.Fatalf("shot %d: got %d, want %d", i, v, target)
		}
	}
	if tm := sp.TotalMass(); tm != 1 {
		t.Fatalf("TotalMass = %v on a basis state, want exactly 1", tm)
	}
}

// TestSamplerCacheAmortizes: clustered shots must reuse the block
// decoded last instead of re-running the codec. Observed indirectly:
// sampling a single-block-support state must still work and return
// only in-support outcomes (TestSamplerDecodesOncePerBlock counts the
// decodes).
func TestSamplerCacheAmortizes(t *testing.T) {
	s := newSim(t, 8, 1, 16, nil)
	if err := s.Run(quantum.NewCircuit(8).H(0).H(1)); err != nil {
		t.Fatal(err)
	}
	sp, err := s.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	out, err := sp.Sample(rand.New(rand.NewSource(3)), 256)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v >= 4 {
			t.Fatalf("shot %d: outcome %d outside the H(0)H(1) support", i, v)
		}
	}
}

// countingCodec counts Decompress calls on the codec it wraps.
type countingCodec struct {
	compress.Codec
	decodes atomic.Int64
}

func (c *countingCodec) Decompress(dst []float64, data []byte) error {
	c.decodes.Add(1)
	return c.Codec.Decompress(dst, data)
}

// TestSamplerDecodesOncePerBlock counts codec decodes during Sample
// alone (not the CDF build): sorted resolution decodes each visited
// block at most once, and a state whose blobs are all byte-identical
// decodes exactly once, since the sampler reuses the last decoded
// block for equal bytes.
func TestSamplerDecodesOncePerBlock(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cir   *quantum.Circuit
		exact bool
	}{
		{"dense", quantum.RandomCircuit(10, 80, 5), false},
		{"hadamard", quantum.HadamardAll(10), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			codec := &countingCodec{Codec: lossless.New(flate.BestSpeed, false)}
			s := newSim(t, 10, 2, 16, func(c *Config) { c.Lossless = codec })
			if err := s.Run(tc.cir); err != nil {
				t.Fatal(err)
			}
			sp, err := s.NewSampler()
			if err != nil {
				t.Fatal(err)
			}
			codec.decodes.Store(0)
			out, err := sp.Sample(rand.New(rand.NewSource(8)), 4096)
			if err != nil {
				t.Fatal(err)
			}
			visited := map[uint64]bool{}
			for _, v := range out {
				visited[v>>4] = true // 16 amplitudes per block
			}
			got := codec.decodes.Load()
			if tc.exact && got != 1 {
				t.Fatalf("%d decodes over %d visited blocks of identical blobs, want 1", got, len(visited))
			}
			if got < 1 || got > int64(len(visited)) {
				t.Fatalf("%d decodes, want 1..%d (one per visited block at most)", got, len(visited))
			}
		})
	}
}
