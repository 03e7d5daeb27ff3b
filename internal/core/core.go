package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"time"

	"qcsim/internal/blockstore"
	"qcsim/internal/compress"
	"qcsim/internal/mpi"
	"qcsim/internal/quantum"
)

// Block storage tags: the first byte of every stored block identifies
// how it was compressed so checkpoints are self-describing.
const (
	tagLossless byte = 0
	tagLossy    byte = 1
	tagRaw      byte = 2
)

// Simulator is the compressed-state engine. Construct with New, run
// circuits with Run (repeatable — state persists across calls), inspect
// with Amplitude/FullState/Stats, persist with Save/Load.
type Simulator struct {
	cfg Config

	// Geometry (paper Fig. 3): global amplitude index =
	// [rank bits | block bits | offset bits].
	offsetBits int // log2(amplitudes per block)
	blockBits  int // log2(blocks per rank)
	rankBits   int // log2(ranks)

	ranks []*rankState

	gatesRun     int
	measurements []int
	bytesMoved   int64
	rng          *rand.Rand
	// sampleRng is the dedicated stream Sample falls back to when the
	// caller passes no rng. Keeping it separate from rng (which drives
	// measurement collapse) makes sampling side-effect-free: drawing
	// samples never perturbs later measurement outcomes.
	sampleRng *rand.Rand

	// ledger is the fidelity lower bound Π(1-δᵢ) over executed gates
	// (Eq. 11).
	ledger float64

	// version counts state mutations (runs, resets, checkpoint loads) so
	// a Sampler can detect that its CDF no longer describes the state.
	version uint64

	// gateLevel[gi] is the max error level any rank used while
	// executing gate gi of the current Run (atomic access).
	gateLevel []uint32

	noise *NoiseModel
}

// rankState is one rank's share: a block store holding nb compressed
// blocks plus a pool of worker scratch pairs (the MCDRAM working set
// of Eq. 8, one copy per worker). The store is internally
// synchronized and owns the footprint accounting; block slots need no
// further coordination — during one gate each block index is owned by
// exactly one worker.
type rankState struct {
	id      int
	store   blockstore.Store
	workers []*workerState
	level   int
	cache   *blockCache
	stats   Stats
	rng     *rand.Rand // per-rank noise stream (deterministic)
	// storeBase/storeAcc baseline the store's cumulative spill
	// counters against the rank Stats lifecycle: Reset zeroes
	// rs.stats but keeps the store, so counters report
	// acc + (store now − base); a checkpoint Load swaps the store,
	// folding the old one's tally into acc first.
	storeBase blockstore.Stats
	storeAcc  blockstore.Stats
	// overBudget latches when a gate boundary finds the footprint above
	// the memory budget with no escalation level left — a whole gate
	// ran at the loosest bound and the state still did not fit.
	overBudget bool
}

// workerState is one worker's private slice of the rank working set: a
// scratch buffer pair plus a stats shard that is merged into the rank
// totals after every fan-out (so the Table 2 accounting matches the
// sequential engine without any per-block locking). In a K-variant
// pass worker i of variant 0 supplies the scratch and worker i of each
// variant holds that variant's shard. Buffers beyond worker 0's are
// allocated on first schedule, not in New — a simulator that never fans
// out (or a machine-wide default pool that the block count keeps from
// ever filling) pays for exactly one Eq. 8 pair, the same as the
// sequential engine.
type workerState struct {
	id    int // index in the rank's pool
	x, y  []float64
	stats Stats
}

// ensure allocates the worker's scratch pair on first use.
func (w *workerState) ensure(n int) {
	if w.x == nil {
		w.x = make([]float64, n)
		w.y = make([]float64, n)
	}
}

// w0 returns the worker whose buffers the sequential code paths
// (Reset, cross-rank exchange, checkpointing) borrow.
func (rs *rankState) w0() *workerState { return rs.workers[0] }

// New builds a Simulator initialized to |0...0⟩.
func New(cfg Config) (*Simulator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:       cfg,
		rankBits:  bits.TrailingZeros(uint(cfg.Ranks)),
		ledger:    1,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		sampleRng: SampleStream(cfg.Seed),
	}
	perRank := cfg.Qubits - s.rankBits
	s.offsetBits = bits.TrailingZeros(uint(cfg.BlockAmps))
	if s.offsetBits > perRank {
		s.offsetBits = perRank
	}
	s.blockBits = perRank - s.offsetBits

	s.ranks = make([]*rankState, cfg.Ranks)
	for r := range s.ranks {
		rs := &rankState{
			id:      r,
			workers: make([]*workerState, cfg.Workers),
			cache:   newBlockCache(cfg.CacheLines),
			// The noise stream must be IDENTICAL on every rank: each
			// rank draws the same variates per gate, so all ranks
			// agree on whether (and which) Pauli fires — otherwise a
			// cross-rank noise gate deadlocks half the pairs.
			rng: rand.New(rand.NewSource(cfg.Seed ^ 0x9E3779B9)),
		}
		store, err := s.newStore(r)
		if err != nil {
			s.Close()
			return nil, err
		}
		rs.store = store
		for w := range rs.workers {
			rs.workers[w] = &workerState{id: w}
		}
		// Worker 0's pair is the one the sequential paths (Reset,
		// cross-rank exchange) borrow; it always exists.
		rs.workers[0].ensure(2 * s.blockAmps())
		s.ranks[r] = rs
	}
	if err := s.Reset(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// newStore builds one rank's block table: the plain in-RAM table by
// default, the tiered RAM→disk store when the configuration enables
// spilling. Checkpoint Load uses it too, for its staging stores.
func (s *Simulator) newStore(rank int) (blockstore.Store, error) {
	nb := s.blocksPerRank()
	if !s.cfg.spillEnabled() {
		return blockstore.NewRAM(nb), nil
	}
	return blockstore.NewTiered(nb, s.cfg.SpillDir, fmt.Sprintf("rank%d", rank), s.cfg.SpillRAMBudget)
}

// Close releases the per-rank block stores — for a spill-enabled
// simulator, the spill files on disk. Idempotent; a no-op for the
// default in-RAM configuration. The simulator must not be used after
// Close.
func (s *Simulator) Close() error {
	var firstErr error
	for _, rs := range s.ranks {
		if rs == nil || rs.store == nil {
			continue
		}
		if err := rs.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// launcher returns the transport that runs the SPMD rank bodies: the
// configured one, defaulting to the in-process goroutine runtime.
func (s *Simulator) launcher() mpi.Launcher {
	if s.cfg.Launcher != nil {
		return s.cfg.Launcher
	}
	return mpi.Goroutines{}
}

// blockAmps returns the amplitudes per block.
func (s *Simulator) blockAmps() int { return 1 << uint(s.offsetBits) }

// blocksPerRank returns nb.
func (s *Simulator) blocksPerRank() int { return 1 << uint(s.blockBits) }

// Qubits returns the register width.
func (s *Simulator) Qubits() int { return s.cfg.Qubits }

// Config returns the effective (defaulted) configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Reset reinitializes the state to |0...0⟩, keeping stats at zero and
// the ledger at 1.
func (s *Simulator) Reset() error {
	s.version++
	for _, rs := range s.ranks {
		rs.level = 0
		rs.overBudget = false
		rs.stats = Stats{}
		// The store survives a Reset; re-baseline its cumulative spill
		// counters so the zeroed rank Stats start counting from here.
		rs.storeAcc = blockstore.Stats{}
		rs.storeBase = rs.store.Stats()
		for _, w := range rs.workers {
			w.stats = Stats{}
		}
		scratch := rs.w0().x
		for i := range scratch {
			scratch[i] = 0
		}
		// Every block except (rank 0, block 0) holds the same all-zero
		// content: compress it once and hand out copies, so a wide
		// register (2^28 amplitudes and beyond) initializes with at most
		// two codec calls per rank instead of one per block.
		zeroBlob, err := s.compressBlock(rs.level, scratch, &rs.stats)
		if err != nil {
			return err
		}
		for b := 0; b < s.blocksPerRank(); b++ {
			var blob []byte
			if rs.id == 0 && b == 0 {
				scratch[0] = 1 // amplitude of |0...0⟩
				blob, err = s.compressBlock(rs.level, scratch, &rs.stats)
				if err != nil {
					return err
				}
				scratch[0] = 0
			} else {
				blob = append([]byte(nil), zeroBlob...)
			}
			if err := rs.store.Put(b, blob); err != nil {
				return err
			}
		}
		s.syncStoreStats(rs)
		rs.stats.MaxFootprint = rs.stats.CurrentFootprint
		rs.stats.MaxResident = rs.stats.ResidentFootprint
	}
	s.ledger = 1
	s.gatesRun = 0
	s.measurements = nil
	return nil
}

// SetBasisState re-initializes to |idx⟩.
func (s *Simulator) SetBasisState(idx uint64) error {
	if idx >= 1<<uint(s.cfg.Qubits) {
		return fmt.Errorf("core: basis state %d out of range", idx)
	}
	if err := s.Reset(); err != nil {
		return err
	}
	if idx == 0 {
		return nil
	}
	r, b, o := s.locate(idx)
	rs := s.ranks[r]
	// Clear block (rank0,block0) then set the target block.
	zero := make([]float64, 2*s.blockAmps())
	blob0, err := s.compressBlock(s.ranks[0].level, zero, &s.ranks[0].stats)
	if err != nil {
		return err
	}
	if err := s.updateBlock(s.ranks[0], 0, blob0); err != nil {
		return err
	}
	zero[2*o] = 1
	blob, err := s.compressBlock(rs.level, zero, &rs.stats)
	if err != nil {
		return err
	}
	if err := s.updateBlock(rs, b, blob); err != nil {
		return err
	}
	s.maybeEscalate(s.ranks[0])
	if rs != s.ranks[0] {
		s.maybeEscalate(rs)
	}
	return nil
}

// locate splits a global amplitude index into (rank, block, offset) per
// the paper's Fig. 3 segmentation.
func (s *Simulator) locate(idx uint64) (rank, block, offset int) {
	offset = int(idx & uint64(s.blockAmps()-1))
	block = int(idx >> uint(s.offsetBits) & uint64(s.blocksPerRank()-1))
	rank = int(idx >> uint(s.offsetBits+s.blockBits))
	return rank, block, offset
}

// compose rebuilds a global index from segments.
func (s *Simulator) compose(rank, block, offset int) uint64 {
	return uint64(rank)<<uint(s.offsetBits+s.blockBits) |
		uint64(block)<<uint(s.offsetBits) | uint64(offset)
}

// compressBlock encodes scratch under the given error level, appending
// the codec tag. Timing is charged to st — a worker's shard on the
// parallel paths, the rank totals on sequential ones.
func (s *Simulator) compressBlock(level int, scratch []float64, st *Stats) ([]byte, error) {
	start := time.Now()
	st.CompressCalls++
	defer func() { st.CompressTime += time.Since(start) }()
	if s.cfg.Uncompressed {
		blob := make([]byte, 1+len(scratch)*8)
		blob[0] = tagRaw
		for i, v := range scratch {
			binary.LittleEndian.PutUint64(blob[1+i*8:], math.Float64bits(v))
		}
		return blob, nil
	}
	if level == 0 {
		blob, err := s.cfg.Lossless.Compress([]byte{tagLossless}, scratch, compress.Options{Mode: compress.Lossless})
		if err != nil {
			return nil, fmt.Errorf("core: lossless compress: %w", err)
		}
		return blob, nil
	}
	bound := s.cfg.ErrorLevels[level-1]
	blob, err := s.cfg.Lossy.Compress([]byte{tagLossy}, scratch, compress.Options{Mode: compress.PointwiseRelative, Bound: bound})
	if err != nil {
		return nil, fmt.Errorf("core: lossy compress: %w", err)
	}
	return blob, nil
}

// decompressBlock is decodeBlob with the timing charged to st — the
// hot path's decoder.
func (s *Simulator) decompressBlock(blob []byte, scratch []float64, st *Stats) error {
	start := time.Now()
	st.DecompressCalls++
	defer func() { st.DecompressTime += time.Since(start) }()
	return s.decodeBlob(blob, scratch)
}

// decodeBlob decodes a stored block into scratch by its codec tag,
// touching no rank stats — the inspection paths call it directly, so
// reading the state never skews the Table 2 time breakdown.
func (s *Simulator) decodeBlob(blob []byte, scratch []float64) error {
	if len(blob) == 0 {
		return fmt.Errorf("core: empty block")
	}
	switch blob[0] {
	case tagRaw:
		if len(blob) != 1+len(scratch)*8 {
			return fmt.Errorf("core: raw block size %d", len(blob))
		}
		for i := range scratch {
			scratch[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[1+i*8:]))
		}
		return nil
	case tagLossless:
		return s.cfg.Lossless.Decompress(scratch, blob[1:])
	case tagLossy:
		return s.cfg.Lossy.Decompress(scratch, blob[1:])
	default:
		return fmt.Errorf("core: unknown block tag %d", blob[0])
	}
}

// updateBlock swaps in a freshly compressed block through the rank's
// store, which maintains the footprint accounting internally (workers
// racing on distinct block indices share the store's counters). The
// high-water mark is NOT sampled here: a mid-gate running peak would
// depend on block completion order and make MaxFootprint
// irreproducible under a worker pool — maybeEscalate samples the
// store at the gate boundary instead. The error is the spill tier's
// (always nil for the in-RAM store).
func (s *Simulator) updateBlock(rs *rankState, b int, blob []byte) error {
	return rs.store.Put(b, blob)
}

// syncStoreStats refreshes the rank Stats' footprint gauges and spill
// counters from the block store (see rankState.storeBase for the
// baselining). Called at gate boundaries and before Stats reads —
// never mid-fan-out, so the numbers are worker-schedule independent.
func (s *Simulator) syncStoreStats(rs *rankState) {
	cur := rs.store.Stats()
	d := rs.storeAcc.Plus(cur.Minus(rs.storeBase))
	rs.stats.CurrentFootprint = rs.store.Footprint()
	rs.stats.ResidentFootprint = rs.store.Resident()
	if rs.stats.ResidentFootprint > rs.stats.MaxResident {
		rs.stats.MaxResident = rs.stats.ResidentFootprint
	}
	rs.stats.SpilledBytes = cur.SpilledBytes
	rs.stats.SpillWrites = d.SpillWrites
	rs.stats.SpillReads = d.SpillReads
	rs.stats.PrefetchReads = d.PrefetchReads
	rs.stats.PrefetchHits = d.PrefetchHits
}

// hintBlocks announces an upcoming block visit order to a tiered
// store so its prefetcher can stage spilled blobs ahead of the pass,
// overlapping disk reads with codec work. Blocks failing the blkCtrl
// mask are not visited and not hinted; pair > 0 interleaves each
// block with its partner b|pair (the cross-block two-block working
// set). The in-RAM store wants no hints and the order slice is never
// built.
func (s *Simulator) hintBlocks(rs *rankState, blkCtrl, pair int) {
	if !rs.store.WantHints() {
		return
	}
	nb := s.blocksPerRank()
	order := make([]int, 0, nb)
	for b := 0; b < nb; b++ {
		if b&blkCtrl != blkCtrl {
			continue
		}
		if pair > 0 {
			if b&pair != 0 {
				continue
			}
			order = append(order, b, b|pair)
		} else {
			order = append(order, b)
		}
	}
	rs.store.PrefetchHint(order)
}

// maybeEscalate is the gate-boundary footprint accounting: it samples
// the MaxFootprint high-water mark and applies the §3.7 escalation
// ladder. Deciding once per gate — rather than inside every block
// update — makes escalation timing, every compressed bit, and the
// Table 2 peak-footprint row independent of the worker interleaving:
// the footprint sum after a gate does not depend on block completion
// order.
//
// With the tiered store the ladder gains its spill rung: the memory
// budget presses on the bytes RESIDENT in RAM, and the store has
// already been evicting cold blobs to disk throughout the gate — so a
// state whose compressed size exceeds the budget but fits on disk
// never escalates at all. Only when the resident set itself cannot be
// held under the budget (spill disabled, a spill RAM budget set above
// the memory budget, or a single blob larger than it) does the old
// ladder take over: relax the error bound one level per gate
// boundary, then latch overBudget when the loosest bound still does
// not fit.
func (s *Simulator) maybeEscalate(rs *rankState) {
	s.syncStoreStats(rs)
	if rs.stats.CurrentFootprint > rs.stats.MaxFootprint {
		rs.stats.MaxFootprint = rs.stats.CurrentFootprint
	}
	if s.cfg.MemoryBudget > 0 && rs.stats.ResidentFootprint > s.cfg.MemoryBudget && !s.cfg.Uncompressed {
		if rs.level < len(s.cfg.ErrorLevels) {
			rs.level++
			rs.stats.Escalations++
			if rs.level > rs.stats.FinalLevel {
				rs.stats.FinalLevel = rs.level
			}
		} else {
			rs.overBudget = true
		}
	}
}

// noteLevel records the level a rank used while executing gate gi, for
// the fidelity ledger.
func (s *Simulator) noteLevel(rs *rankState, gi, level int) {
	lvl := uint32(level)
	if level > rs.stats.FinalLevel {
		rs.stats.FinalLevel = level
	}
	for {
		cur := atomic.LoadUint32(&s.gateLevel[gi])
		if cur >= lvl || atomic.CompareAndSwapUint32(&s.gateLevel[gi], cur, lvl) {
			return
		}
	}
}

// applyCrossRank handles targets in the rank segment: block pairs span
// two ranks and are exchanged (§3.3 third case). The loop stays
// sequential — the pairwise SendRecv protocol requires both ranks to
// walk their blocks in the same order, and the exchange, not the
// compute, dominates here. A codec failure must NOT bail out mid-loop:
// the peer would block forever in SendRecv while this rank sat at the
// sweep error barrier. Instead the rank keeps the exchange protocol
// alive for the remaining blocks (sending whatever is in scratch),
// skips the now-pointless codec and compute work, and reports the
// first error at the gate boundary, where the barrier stops all ranks.
func (s *Simulator) applyCrossRank(comm mpi.Comm, rs *rankState, g quantum.Gate, gi int, offCtrl uint64, blkCtrl int) error {
	tr := 1 << uint(g.Target-s.offsetBits-s.blockBits)
	peer := rs.id ^ tr
	lowSide := rs.id&tr == 0 // this rank holds the target-bit-0 half
	lvl := rs.level
	nb := s.blocksPerRank()
	w := rs.w0()
	s.hintBlocks(rs, blkCtrl, 0)
	var firstErr error
	for b := 0; b < nb; b++ {
		if b&blkCtrl != blkCtrl {
			continue
		}
		if firstErr == nil {
			blob, err := rs.store.Get(b)
			if err == nil {
				err = s.decompressBlock(blob, w.x, &rs.stats)
			}
			if err != nil {
				firstErr = err
			}
		}
		comm.SendRecv(peer, w.x, w.y)
		if firstErr != nil {
			continue
		}
		start := time.Now()
		x, y := w.x, w.y
		ba := s.blockAmps()
		u := g.U
		for o := 0; o < ba; o++ {
			if uint64(o)&offCtrl != offCtrl {
				continue
			}
			re, im := 2*o, 2*o+1
			if lowSide {
				a0 := complex(x[re], x[im])
				a1 := complex(y[re], y[im])
				n0 := u[0][0]*a0 + u[0][1]*a1
				x[re], x[im] = real(n0), imag(n0)
			} else {
				a0 := complex(y[re], y[im])
				a1 := complex(x[re], x[im])
				n1 := u[1][0]*a0 + u[1][1]*a1
				x[re], x[im] = real(n1), imag(n1)
			}
		}
		rs.stats.ComputeTime += time.Since(start)
		blob, err := s.compressBlock(lvl, w.x, &rs.stats)
		if err != nil {
			firstErr = err
			continue
		}
		if err := s.updateBlock(rs, b, blob); err != nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	s.noteLevel(rs, gi, lvl)
	s.maybeEscalate(rs)
	return nil
}

// applyPair applies u to the amplitude pair at indices (i, j) of one
// interleaved scratch buffer (paper Eq. 6).
func applyPair(u quantum.Matrix2, x []float64, i, j int) {
	a0 := complex(x[2*i], x[2*i+1])
	a1 := complex(x[2*j], x[2*j+1])
	n0 := u[0][0]*a0 + u[0][1]*a1
	n1 := u[1][0]*a0 + u[1][1]*a1
	x[2*i], x[2*i+1] = real(n0), imag(n0)
	x[2*j], x[2*j+1] = real(n1), imag(n1)
}

// applyPairSplit applies u to amplitude o of the low block x and the
// same offset of the high block y.
func applyPairSplit(u quantum.Matrix2, x, y []float64, o int) {
	re, im := 2*o, 2*o+1
	a0 := complex(x[re], x[im])
	a1 := complex(y[re], y[im])
	n0 := u[0][0]*a0 + u[0][1]*a1
	n1 := u[1][0]*a0 + u[1][1]*a1
	x[re], x[im] = real(n0), imag(n0)
	y[re], y[im] = real(n1), imag(n1)
}

// SampleStream derives the dedicated seeded sampling rng from a
// simulator seed. It is the single source of the derivation for every
// backend — the facade's MPS engine uses it too, so WithSeed fixes an
// equivalent sampling-stream contract regardless of engine.
func SampleStream(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
}
