package core

import (
	"fmt"

	"qcsim/internal/blockstore"
	"qcsim/internal/quantum"
)

// Variant-batched execution: one run drives K state variants — K
// bindings of one circuit shape — in lockstep through the executor
// (runLockstep). The schedule is planned once (shapes are identical,
// and PlanSweeps reads only shape), and every pass walks the blocks
// index-first: for block b, all K variants are processed back to back,
// with the block cache — keyed on (op signature, error level,
// compressed input) — deduplicating codec work across variants whose
// blocks have not diverged yet. A parameter-shift batch — K-1 variants
// each differing from the base in a single gate — shares the entire
// pre-divergence prefix, so it costs ~1× codec traffic there instead of
// K×.
//
// The results are bit-identical to running each variant alone: a cache
// hit hands back the exact blob the (deterministic) codec produced for
// the same signature, level, and input bytes.

// VariantSeed derives the seed of batch variant v from a base seed.
// Variant 0 keeps the base seed — its samplers and measurement streams
// match a solo run of the parent simulator exactly — and later
// variants decorrelate by a splitmix-style odd multiplier.
func VariantSeed(base int64, v int) int64 {
	if v == 0 {
		return base
	}
	return base ^ int64(uint64(v)*0x9E3779B97F4A7C15)
}

// Clone builds an independent simulator with the same configuration
// (seeded with seed) holding a copy of the current state: compressed
// blocks are copied blob-for-blob, the per-rank error levels, fidelity
// ledger, gate count, and measurement log carry over, and the stats
// start fresh from the cloned footprint. The clone owns its stores
// (and, under a spill configuration, its own spill files) and must be
// Closed like any simulator.
func (s *Simulator) Clone(seed int64) (*Simulator, error) {
	cfg := s.cfg
	cfg.Seed = seed
	clone, err := New(cfg)
	if err != nil {
		return nil, err
	}
	clone.noise = s.noise
	for ri, rs := range s.ranks {
		crs := clone.ranks[ri]
		crs.level = rs.level
		crs.overBudget = rs.overBudget
		crs.stats = Stats{FinalLevel: rs.level}
		crs.storeAcc = blockstore.Stats{}
		crs.storeBase = crs.store.Stats()
		for b := 0; b < s.blocksPerRank(); b++ {
			blob, err := rs.store.Peek(b)
			if err != nil {
				clone.Close()
				return nil, err
			}
			if err := crs.store.Put(b, append([]byte(nil), blob...)); err != nil {
				clone.Close()
				return nil, err
			}
		}
		clone.syncStoreStats(crs)
		crs.stats.MaxFootprint = crs.stats.CurrentFootprint
		crs.stats.MaxResident = crs.stats.ResidentFootprint
	}
	clone.ledger = s.ledger
	clone.gatesRun = s.gatesRun
	clone.measurements = append([]int(nil), s.measurements...)
	return clone, nil
}

// RunBatch executes circuits[v] on sims[v] for every v in one batched
// run. All simulators must share one geometry and configuration (use
// Clone) and all circuits one shape (use quantum.Circuit.Bind on one
// parametric circuit); K == 1 is exactly RunControlled.
//
// Every gate runs in lockstep through the one executor, block-index
// first with cross-variant codec deduplication; Stats gains
// CodecPassesShared and VariantCount. Measurement gates and a live
// noise channel consume per-variant randomness, so the executor runs
// them variant by variant inside the batch: each variant draws from its
// own streams in its own gate order, so outcomes equal variant-at-a-time
// runs.
//
// ctl hooks fire once per batch, not per variant: PollAbort stops all
// K variants at the same sweep boundary, OnGate reports batch progress
// against variant 0's gates. A failure in any variant likewise stops
// every variant at the same sweep boundary, and the error is returned.
func RunBatch(sims []*Simulator, circuits []*quantum.Circuit, ctl RunControl) error {
	if len(sims) == 0 {
		return fmt.Errorf("%w: empty batch", ErrBatchMismatch)
	}
	if len(sims) != len(circuits) {
		return fmt.Errorf("%w: %d simulators for %d circuits", ErrBatchMismatch, len(sims), len(circuits))
	}
	s0 := sims[0]
	for v, s := range sims {
		if s == nil || circuits[v] == nil {
			return fmt.Errorf("%w: nil simulator or circuit at variant %d", ErrBatchMismatch, v)
		}
		if circuits[v].N != s.cfg.Qubits {
			return fmt.Errorf("%w: variant %d circuit has %d qubits, simulator %d", ErrBatchMismatch, v, circuits[v].N, s.cfg.Qubits)
		}
		if circuits[v].Parametric() {
			return fmt.Errorf("%w: variant %d circuit has unbound parameters; Bind it first", ErrBatchMismatch, v)
		}
		if v > 0 {
			if err := sameBatchConfig(s0, s); err != nil {
				return fmt.Errorf("variant %d: %w", v, err)
			}
			if !quantum.SameShape(circuits[v], circuits[0]) {
				return fmt.Errorf("%w: variant %d circuit shape differs from variant 0 (lockstep needs one shape)", ErrBatchMismatch, v)
			}
		}
	}
	return runLockstep(sims, circuits, ctl)
}

// sameBatchConfig verifies two simulators can run in lockstep: the
// block geometry, codec ladder, and scheduling switches must agree —
// Clone guarantees all of it. A live noise channel is a scheduling
// switch too: it turns the sweep scheduler off, and the variants share
// one sweep plan.
func sameBatchConfig(a, b *Simulator) error {
	switch {
	case a.cfg.Qubits != b.cfg.Qubits,
		a.cfg.Ranks != b.cfg.Ranks,
		a.offsetBits != b.offsetBits,
		a.cfg.Uncompressed != b.cfg.Uncompressed,
		a.cfg.DisableSweeps != b.cfg.DisableSweeps,
		a.cfg.FuseGates != b.cfg.FuseGates,
		a.cfg.MemoryBudget != b.cfg.MemoryBudget,
		a.noiseActive() != b.noiseActive():
		return fmt.Errorf("%w: simulator configuration differs from variant 0", ErrBatchMismatch)
	}
	if len(a.cfg.ErrorLevels) != len(b.cfg.ErrorLevels) {
		return fmt.Errorf("%w: error-level ladder differs from variant 0", ErrBatchMismatch)
	}
	for i := range a.cfg.ErrorLevels {
		if a.cfg.ErrorLevels[i] != b.cfg.ErrorLevels[i] {
			return fmt.Errorf("%w: error-level ladder differs from variant 0", ErrBatchMismatch)
		}
	}
	return nil
}
