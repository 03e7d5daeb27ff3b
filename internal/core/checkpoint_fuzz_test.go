package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"qcsim/internal/quantum"
)

// FuzzCheckpointLoad holds Load to its contract on arbitrary input:
// never panic (and never allocate by a size field the bytes do not
// back), and on any error leave the state exactly as it was. An input
// that loads must decode in full. Seeds are real checkpoints of a
// lossless and a lossy state, and a 64-byte header with this geometry
// whose gate and measurement counts are both 2^40.
func FuzzCheckpointLoad(f *testing.F) {
	const qubits, ranks, blockAmps = 6, 2, 8
	cir := quantum.QFT(qubits, 5)
	lossy := func(c *Config) { c.MemoryBudget = 96 }
	save := func(extra func(*Config)) []byte {
		cfg := Config{Qubits: qubits, Ranks: ranks, BlockAmps: blockAmps, Seed: 1}
		if extra != nil {
			extra(&cfg)
		}
		s, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		defer s.Close()
		if err := s.Run(cir); err != nil {
			f.Fatal(err)
		}
		if extra != nil && s.Stats().FinalLevel == 0 {
			f.Fatal("lossy seed stayed lossless")
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	clean := save(nil)
	f.Add(clean)
	f.Add(save(lossy))
	crafted := append([]byte(nil), clean[:8+4*8]...)
	crafted = binary.LittleEndian.AppendUint64(crafted, math.Float64bits(1))
	crafted = binary.LittleEndian.AppendUint64(crafted, 1<<40)
	crafted = binary.LittleEndian.AppendUint64(crafted, 1<<40)
	f.Add(crafted)

	f.Fuzz(func(t *testing.T, data []byte) {
		// One worker and a restored (not re-run) state keep each exec
		// cheap enough for the fuzzer to get real throughput.
		s, err := New(Config{Qubits: qubits, Ranks: ranks, BlockAmps: blockAmps, Seed: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Load(bytes.NewReader(clean)); err != nil {
			t.Fatal(err)
		}
		before, err := s.FullState()
		if err != nil {
			t.Fatal(err)
		}
		gates := s.GatesRun()
		loadErr := s.Load(bytes.NewReader(data))
		after, err := s.FullState()
		if loadErr == nil {
			if err != nil {
				t.Fatalf("Load accepted a checkpoint FullState cannot decode: %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected Load (%v) broke the state: %v", loadErr, err)
		}
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("rejected Load (%v) changed amplitude %d", loadErr, i)
			}
		}
		if s.GatesRun() != gates {
			t.Fatalf("rejected Load (%v) changed GatesRun to %d", loadErr, s.GatesRun())
		}
	})
}
