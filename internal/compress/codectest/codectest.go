// Package codectest provides shared conformance checks and data
// generators for the compressor packages. Every codec must pass the same
// contract: self-describing payloads, exact reconstruction in lossless
// mode, and error bounds honored pointwise in lossy modes — on smooth,
// spiky, sparse, and adversarial data alike.
package codectest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qcsim/internal/compress"
)

// Dataset is a named test input.
type Dataset struct {
	Name string
	Data []float64
}

// Datasets returns the standard conformance inputs of length n
// (n must be even; values mimic interleaved complex amplitudes).
func Datasets(n int, seed int64) []Dataset {
	rng := rand.New(rand.NewSource(seed))
	mk := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	norm := func(xs []float64) []float64 {
		var s float64
		for _, x := range xs {
			s += x * x
		}
		if s == 0 {
			return xs
		}
		s = 1 / math.Sqrt(s)
		for i := range xs {
			xs[i] *= s
		}
		return xs
	}
	return []Dataset{
		{"zeros", mk(func(int) float64 { return 0 })},
		{"constant", mk(func(int) float64 { return 0.125 })},
		{"basis-state", norm(mk(func(i int) float64 {
			if i == 2 {
				return 1
			}
			return 0
		}))},
		{"uniform-superposition", norm(mk(func(i int) float64 {
			if i%2 == 0 {
				return 1
			}
			return 0
		}))},
		{"smooth", mk(func(i int) float64 { return math.Sin(float64(i) / 50) })},
		{"spiky", norm(mk(func(i int) float64 {
			// The paper's Fig. 9: random sign, random magnitude spread
			// over several orders of magnitude.
			v := math.Exp(rng.Float64()*8-12) * math.Pow(-1, float64(rng.Intn(2)))
			return v
		}))},
		{"sparse", norm(mk(func(i int) float64 {
			if rng.Float64() < 0.05 {
				return rng.NormFloat64()
			}
			return 0
		}))},
		{"tiny-and-large", mk(func(i int) float64 {
			switch i % 4 {
			case 0:
				return 1e-300
			case 1:
				return -1e300
			case 2:
				return 1e-12
			default:
				return 3.9921875 // the paper's Fig. 13 worked example
			}
		})},
		{"gaussian", norm(mk(func(i int) float64 { return rng.NormFloat64() }))},
	}
}

// LossyOptions returns the paper's five error levels for the mode.
func LossyOptions(mode compress.ErrorMode) []compress.Options {
	var opts []compress.Options
	for _, b := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5} {
		opts = append(opts, compress.Options{Mode: mode, Bound: b})
	}
	return opts
}

// RoundTrip compresses and decompresses, failing the test on error or
// contract violation.
func RoundTrip(t *testing.T, c compress.Codec, data []float64, opt compress.Options) []float64 {
	t.Helper()
	payload, err := c.Compress(nil, data, opt)
	if err != nil {
		t.Fatalf("%s compress(%v): %v", c.Name(), opt, err)
	}
	out := make([]float64, len(data))
	if err := c.Decompress(out, payload); err != nil {
		t.Fatalf("%s decompress(%v): %v", c.Name(), opt, err)
	}
	if i := compress.CheckBound(data, out, opt); i >= 0 {
		t.Fatalf("%s mode=%v bound=%g: contract violated at %d: %g -> %g",
			c.Name(), opt.Mode, opt.Bound, i, data[i], out[i])
	}
	return out
}

// ConformanceLossless checks bit-exact reconstruction across datasets.
//
//qclint:allow deadexport the codec packages' TestConformance* suites run it
func ConformanceLossless(t *testing.T, c compress.Codec) {
	t.Helper()
	for _, ds := range Datasets(2048, 7) {
		ds := ds
		t.Run("lossless/"+ds.Name, func(t *testing.T) {
			RoundTrip(t, c, ds.Data, compress.Options{Mode: compress.Lossless})
		})
	}
}

// ConformanceLossy checks the error contract across datasets and the
// paper's five bounds.
//
//qclint:allow deadexport the lossy codecs' TestConformance* suites run it
func ConformanceLossy(t *testing.T, c compress.Codec, mode compress.ErrorMode) {
	t.Helper()
	for _, ds := range Datasets(2048, 11) {
		for _, opt := range LossyOptions(mode) {
			ds, opt := ds, opt
			t.Run(opt.Mode.String()+"/"+ds.Name, func(t *testing.T) {
				o := opt
				if o.Mode == compress.Absolute {
					// The paper sets absolute bounds as a fraction of
					// the block's value range.
					lo, hi := minMax(ds.Data)
					r := hi - lo
					if r == 0 {
						r = 1
					}
					o.Bound = opt.Bound * r
				}
				RoundTrip(t, c, ds.Data, o)
			})
		}
	}
}

// ConformanceEmptyAndSmall checks degenerate sizes.
//
//qclint:allow deadexport the codec packages' TestConformance* suites run it
func ConformanceEmptyAndSmall(t *testing.T, c compress.Codec) {
	t.Helper()
	for _, n := range []int{0, 1, 2, 3, 5, 7} {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i) * 0.25
		}
		RoundTrip(t, c, data, compress.Options{Mode: compress.Lossless})
		if n > 0 {
			RoundTrip(t, c, data, compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3})
		}
	}
}

// ConformanceCorrupt checks that mangled payloads return errors rather
// than panicking or silently succeeding.
//
//qclint:allow deadexport the codec packages' TestConformance* suites run it
func ConformanceCorrupt(t *testing.T, c compress.Codec) {
	t.Helper()
	data := Datasets(512, 3)[5].Data // spiky
	payload, err := c.Compress(nil, data, compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(data))
	if err := c.Decompress(out, payload[:8]); err == nil {
		t.Error("truncated header accepted")
	}
	if err := c.Decompress(make([]float64, len(data)+1), payload); err == nil {
		t.Error("wrong dst length accepted")
	}
	garbage := append([]byte(nil), payload...)
	for i := range garbage {
		garbage[i] ^= 0xFF
	}
	// Full-corruption must not panic; error is expected but a garbage
	// decode that happens to parse is tolerated for lossy coders.
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on corrupt payload: %v", r)
			}
		}()
		_ = c.Decompress(out, garbage)
	}()
}

// ConformanceNonFinite checks NaN/Inf survive (via exception paths) in
// lossy modes where codecs promise it.
//
//qclint:allow deadexport the lossy codecs' TestConformance* suites run it
func ConformanceNonFinite(t *testing.T, c compress.Codec, mode compress.ErrorMode) {
	t.Helper()
	data := []float64{1, math.NaN(), -2, math.Inf(1), 0.5, math.Inf(-1), 0, 3}
	opt := compress.Options{Mode: mode, Bound: 1e-2}
	payload, err := c.Compress(nil, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(data))
	if err := c.Decompress(out, payload); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out[1]) || !math.IsInf(out[3], 1) || !math.IsInf(out[5], -1) {
		t.Fatalf("non-finite values lost: %v", out)
	}
	for _, i := range []int{0, 2, 4, 6, 7} {
		if math.Abs(out[i]-data[i]) > 1e-2*math.Abs(data[i]) {
			t.Fatalf("finite neighbor %d out of bound: %g -> %g", i, data[i], out[i])
		}
	}
}

// ConformanceConcurrent hammers one codec instance from many
// goroutines — the SPMD engine shares codec instances across ranks, so
// Compress/Decompress must be safe and correct under concurrency.
//
//qclint:allow deadexport the codec packages' TestConcurrentUse tests run it
func ConformanceConcurrent(t *testing.T, c compress.Codec) {
	t.Helper()
	datasets := Datasets(1024, 13)
	opt := compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			data := datasets[g%len(datasets)].Data
			for i := 0; i < 25; i++ {
				p, err := c.Compress(nil, data, opt)
				if err != nil {
					done <- err
					return
				}
				out := make([]float64, len(data))
				if err := c.Decompress(out, p); err != nil {
					done <- err
					return
				}
				if idx := compress.CheckBound(data, out, opt); idx >= 0 {
					done <- fmt.Errorf("goroutine %d iter %d: bound violated at %d", g, i, idx)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
