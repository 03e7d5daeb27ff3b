package main

import (
	"math"
	"runtime/metrics"
	"time"

	"qcsim"
)

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU                              float64 // seconds
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: v(0), allocObjects: v(1), gcCycles: v(2), gcCPU: v(3)}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

// probeResult is one codec's throughput on a workload's final state.
type probeResult struct {
	encMBps, decMBps, ratio, allocsPerCall float64
}

// probeMinTime is how long each codec is driven; throughput is the
// median over whole passes across the state's blocks.
const probeMinTime = 250 * time.Millisecond

// codecProbe cuts a state into blocks of blockAmps amplitudes
// (interleaved real/imaginary float64, the engine's block layout) and
// drives one registered codec's Compress/Decompress over them. It
// returns a description of the first decoded value that violates the
// codec options, or "" when every block round-trips within them.
func codecProbe(name string, opt qcsim.CodecOptions, state []complex128, blockAmps int) (probeResult, string, error) {
	codec, err := qcsim.NewCodec(name)
	if err != nil {
		return probeResult{}, "", err
	}
	var blocks [][]float64
	for off := 0; off < len(state); off += blockAmps {
		end := min(off+blockAmps, len(state))
		b := make([]float64, 0, 2*(end-off))
		for _, a := range state[off:end] {
			b = append(b, real(a), imag(a))
		}
		blocks = append(blocks, b)
	}
	blobs := make([][]byte, len(blocks))
	outs := make([][]float64, len(blocks))
	var raw, packed float64
	for i, b := range blocks {
		outs[i] = make([]float64, len(b))
		raw += float64(8 * len(b))
	}

	var encTimes, decTimes []float64
	var allocs, calls float64
	mismatch := ""
	start := time.Now()
	for pass := 0; pass < 3 || time.Since(start) < probeMinTime; pass++ {
		r0 := readRuntime()
		t0 := time.Now()
		for i, b := range blocks {
			if blobs[i], err = codec.Compress(blobs[i][:0], b, opt); err != nil {
				return probeResult{}, "", err
			}
		}
		t1 := time.Now()
		for i := range blocks {
			if err := codec.Decompress(outs[i], blobs[i]); err != nil {
				return probeResult{}, "", err
			}
		}
		t2 := time.Now()
		allocs += readRuntime().sub(r0).allocObjects
		calls += float64(2 * len(blocks))
		encTimes = append(encTimes, t1.Sub(t0).Seconds())
		decTimes = append(decTimes, t2.Sub(t1).Seconds())
		if pass == 0 {
			for i := range blocks {
				packed += float64(len(blobs[i]))
				if mismatch == "" {
					mismatch = checkDecoded(name, opt, blocks[i], outs[i])
				}
			}
		}
	}
	return probeResult{
		encMBps:       raw / median(encTimes) / 1e6,
		decMBps:       raw / median(decTimes) / 1e6,
		ratio:         raw / packed,
		allocsPerCall: allocs / calls,
	}, mismatch, nil
}

func checkDecoded(name string, opt qcsim.CodecOptions, want, got []float64) string {
	for i := range want {
		ok := math.Float64bits(want[i]) == math.Float64bits(got[i])
		if opt.Mode == qcsim.CodecPointwiseRelative {
			ok = math.Abs(got[i]-want[i]) <= opt.Bound*math.Abs(want[i])
		}
		if !ok {
			return name + ": decoded value outside the codec options"
		}
	}
	return ""
}
