package core

import (
	"errors"
	"testing"

	"qcsim/internal/quantum"
)

// TestTypedSentinels: the engine's validation failures wrap sentinels,
// so the facade translates them with errors.Is instead of matching
// message text.
func TestTypedSentinels(t *testing.T) {
	s := newSim(t, 2, 1, 4, nil)

	if err := s.AssertClassical(0, 1, 1e-6); !errors.Is(err, ErrAssertFailed) {
		t.Fatalf("AssertClassical: %v does not wrap ErrAssertFailed", err)
	}
	if err := s.AssertSuperposition(0, 0.01); !errors.Is(err, ErrAssertFailed) {
		t.Fatalf("AssertSuperposition: %v does not wrap ErrAssertFailed", err)
	}
	if err := s.AssertProduct(1, 1, 0.01); !errors.Is(err, ErrInvalidPair) {
		t.Fatalf("AssertProduct(1,1): %v does not wrap ErrInvalidPair", err)
	}

	sp, err := s.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Sample(nil, -1); !errors.Is(err, ErrNegativeShots) {
		t.Fatalf("Sample(-1): %v does not wrap ErrNegativeShots", err)
	}

	bound := quantum.GHZ(2)
	if err := RunBatch(nil, nil, RunControl{}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("empty batch: %v does not wrap ErrBatchMismatch", err)
	}
	if err := RunBatch([]*Simulator{s}, []*quantum.Circuit{bound, bound}, RunControl{}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("ragged batch: %v does not wrap ErrBatchMismatch", err)
	}
	if err := RunBatch([]*Simulator{s, nil}, []*quantum.Circuit{bound, bound}, RunControl{}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("nil variant: %v does not wrap ErrBatchMismatch", err)
	}
	wide := quantum.GHZ(3)
	if err := RunBatch([]*Simulator{s}, []*quantum.Circuit{wide}, RunControl{}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("width mismatch: %v does not wrap ErrBatchMismatch", err)
	}
	mismatched := newSim(t, 2, 2, 4, nil)
	if err := RunBatch([]*Simulator{s, mismatched}, []*quantum.Circuit{bound, bound}, RunControl{}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("geometry mismatch: %v does not wrap ErrBatchMismatch", err)
	}
}
