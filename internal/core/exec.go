package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qcsim/internal/mpi"
	"qcsim/internal/quantum"
)

// RunControl carries the optional per-gate hooks RunControlled consults
// at gate boundaries. The zero value disables both hooks, making
// RunControlled identical to Run.
type RunControl struct {
	// PollAbort, when non-nil, is consulted on rank 0 before every sweep
	// (every gate when the sweep scheduler is off). A non-nil return
	// stops execution at that sweep boundary on every rank (the decision
	// is broadcast, so all ranks agree and no cross-rank exchange is
	// left half-paired) and RunControlled returns an error wrapping it.
	// Gates already executed are kept: state, stats, and the fidelity
	// ledger reflect exactly the completed prefix and the simulator
	// stays fully inspectable.
	PollAbort func() error
	// OnGate, when non-nil, is invoked on rank 0 after each gate
	// completes, with the gate's index, the total gate count of this run
	// (post-fusion), and the gate itself. It runs on the rank-0
	// goroutine and must not call back into the Simulator.
	OnGate func(gi, total int, g quantum.Gate)
}

// Run executes the circuit on the current state. It may be called
// repeatedly; state, stats, and the fidelity ledger accumulate.
func (s *Simulator) Run(c *quantum.Circuit) error {
	return s.RunControlled(c, RunControl{})
}

// errPeerRankFailed marks a rank that stopped because the sweep error
// barrier reported a failure on ANOTHER rank; the executor prefers the
// failing rank's real error over this placeholder.
var errPeerRankFailed = errors.New("core: gate failed on a peer rank")

// RunControlled is Run with sweep-boundary hooks: cooperative abort
// (PollAbort) and progress reporting (OnGate). With zero hooks the
// execution path — every collective, every compressed bit — is
// identical to Run. It is the lockstep executor at K = 1; see
// runLockstep for the sweep schedule and the failure semantics.
func (s *Simulator) RunControlled(c *quantum.Circuit, ctl RunControl) error {
	if c.N != s.cfg.Qubits {
		return fmt.Errorf("core: circuit has %d qubits, simulator %d", c.N, s.cfg.Qubits)
	}
	if c.Parametric() {
		return fmt.Errorf("core: circuit has unbound parameters; Bind it first")
	}
	return runLockstep([]*Simulator{s}, []*quantum.Circuit{c}, ctl)
}

// runLockstep is the one executor: it runs circuits[v] on sims[v] for K
// variants — K == 1 is a solo run — through one sweep plan, one set of
// SPMD ranks and one error barrier per sweep. The caller has checked
// that the variants share one geometry and configuration and the
// circuits one shape.
//
// Execution iterates the sweep schedule: maximal runs of consecutive
// block-local gates execute as one codec pass per block for the whole
// run, everything else gate-at-a-time. Every block pass walks the
// blocks index-first — one worker takes block b through every variant
// back to back — so the block cache turns variants whose blocks have
// not diverged into copies. Measurement and noise consume per-variant
// randomness, so they run variant by variant inside the same sweep:
// each variant draws from its own streams in its own gate order, as a
// solo run would.
//
// After every sweep an error barrier (an allreduce of per-rank failure
// flags) makes all ranks agree on whether any rank failed, so a failure
// — on any rank, in any variant — stops every rank and every variant at
// the same sweep boundary and surfaces as an error, never a panic and
// never a hung collective. On error the state reflects the completed
// prefix, except that the failing sweep itself may be partially applied;
// every simulator stays inspectable either way.
func runLockstep(sims []*Simulator, circuits []*quantum.Circuit, ctl RunControl) error {
	s0 := sims[0]
	// Fuse per variant. Fusion decisions read only gate structure
	// (kind, target, controls), which is identical across bindings, so
	// the shapes stay aligned; the check below is a tripwire.
	cs := make([]*quantum.Circuit, len(sims))
	for v, c := range circuits {
		if sims[v].cfg.FuseGates {
			c = quantum.FuseSingleQubitGates(c)
		}
		cs[v] = c
		if v > 0 && !quantum.SameShape(c, cs[0]) {
			return fmt.Errorf("%w: variant %d shape diverged after fusion", ErrBatchMismatch, v)
		}
	}
	nGates := len(cs[0].Gates)
	plan := quantum.SingletonSweeps(cs[0].Gates)
	if s0.sweepsEnabled() {
		plan = quantum.PlanSweeps(cs[0].Gates, s0.offsetBits)
	}
	for _, s := range sims {
		if nGates > 0 {
			// Any gate may mutate the state (even a failed run leaves a
			// completed prefix), so samplers built earlier are now stale.
			s.version++
		}
		s.gateLevel = make([]uint32, nGates)
	}
	measured := make([][]int, len(sims)) // rank 0's outcomes, per variant
	rankErrs := make([]error, s0.cfg.Ranks)
	// abortErr and executed are written only by the rank-0 goroutine and
	// read after the launcher's completion establishes happens-before.
	var abortErr error
	var executed int
	comms, err := s0.launcher().Launch(s0.cfg.Ranks, func(comm mpi.Comm) {
		ls := newLockstep(comm, sims)
		ran := 0
		for _, sw := range plan {
			if ctl.PollAbort != nil {
				// Rank 0 decides; the broadcast makes every rank stop at
				// the same sweep boundary (a rank aborting unilaterally
				// would strand its cross-rank partners mid-exchange).
				var stop float64
				if comm.Rank() == 0 {
					if aerr := ctl.PollAbort(); aerr != nil {
						abortErr = aerr
						stop = 1
					}
				}
				if comm.Bcast(0, stop) != 0 {
					break
				}
			}
			// Outcomes are held back until the barrier clears.
			outcomes, swErr := ls.step(cs, sw)
			// Error barrier: every rank learns whether any rank failed
			// this sweep, so all stop at the same boundary.
			var flag float64
			if swErr != nil {
				flag = 1
			}
			if comm.AllreduceSum(flag) != 0 {
				if swErr == nil {
					swErr = errPeerRankFailed
				}
				rankErrs[comm.Rank()] = swErr
				break
			}
			ran += sw.Len()
			if comm.Rank() == 0 {
				for v, out := range outcomes {
					measured[v] = append(measured[v], out)
				}
				if ctl.OnGate != nil {
					for gi := sw.Start; gi < sw.End; gi++ {
						ctl.OnGate(gi, nGates, cs[0].Gates[gi])
					}
				}
			}
		}
		for _, rs := range ls.rss {
			rs.stats.Gates += ran
			if len(sims) > 1 {
				rs.stats.VariantCount = len(sims)
			}
		}
		if comm.Rank() == 0 {
			executed = ran
		}
	})
	if err != nil {
		return err
	}
	// One set of comms served every variant; the communication time and
	// traffic are charged to variant 0.
	for i, comm := range comms {
		if comm == nil {
			continue // remote rank: its accounting arrives via ApplyDeltas
		}
		s0.ranks[i].stats.CommTime += comm.CommTime()
		s0.bytesMoved += comm.BytesMoved()
	}
	for v, s := range sims {
		s.measurements = append(s.measurements, measured[v]...)
		// Fold per-gate max levels into the ledger (Eq. 11). Gates past
		// an abort boundary were never executed, so their entries are
		// still 0; a k-gate sweep recompresses once and charges one
		// factor, at its last gate's index.
		for _, lvl := range s.gateLevel {
			if lvl > 0 {
				s.ledger *= 1 - s.cfg.ErrorLevels[lvl-1]
			}
		}
		s.gatesRun += executed
	}
	var gateErr error
	for _, e := range rankErrs {
		if e != nil && (gateErr == nil || errors.Is(gateErr, errPeerRankFailed)) {
			gateErr = e
		}
	}
	if abortErr != nil {
		return fmt.Errorf("core: run aborted after %d of %d gates: %w", executed, nGates, abortErr)
	}
	if gateErr != nil {
		return fmt.Errorf("core: run failed after %d of %d gates: %w", executed, nGates, gateErr)
	}
	return nil
}

// lockstep is one rank's share of a run: the K variants' simulators and
// rank states, in variant order, and the block cache they share.
type lockstep struct {
	comm  mpi.Comm
	sims  []*Simulator
	rss   []*rankState
	cache *blockCache
	// shared is set on a K > 1 run, whose cache hits are codec work one
	// variant shares with another (Stats.CodecPassesShared).
	shared bool
}

// newLockstep builds the rank's view of a run. The cache is variant
// 0's rank cache, sized for the run's width (cacheLines).
func newLockstep(comm mpi.Comm, sims []*Simulator) *lockstep {
	ls := &lockstep{comm: comm, sims: sims, rss: make([]*rankState, len(sims)), shared: len(sims) > 1}
	for v, s := range sims {
		ls.rss[v] = s.ranks[comm.Rank()]
	}
	rs0 := ls.rss[0]
	if lines := cacheLines(sims[0].cfg.CacheLines, len(sims), len(rs0.workers)); rs0.cache.capacity() != lines {
		rs0.cache = newBlockCache(lines)
	}
	ls.cache = rs0.cache
	return ls
}

// variant narrows the run to variant v alone, for the per-variant noise
// step.
func (ls *lockstep) variant(v int) *lockstep {
	return &lockstep{comm: ls.comm, sims: ls.sims[v : v+1], rss: ls.rss[v : v+1], cache: ls.cache, shared: ls.shared}
}

// step executes one sweep of the plan on this rank for every variant.
// It returns one measurement outcome per variant when the sweep is a
// measurement.
func (ls *lockstep) step(cs []*quantum.Circuit, sw quantum.Sweep) ([]int, error) {
	if sw.Local {
		return nil, ls.sweep(cs, sw)
	}
	// Non-local sweeps are singletons by construction.
	gi := sw.Start
	gs := make([]quantum.Gate, len(cs))
	for v, c := range cs {
		gs[v] = c.Gates[gi]
	}
	if gs[0].Kind == quantum.KindMeasure {
		return ls.measure(gs, gi)
	}
	err := ls.gate(gs, gi)
	if ls.sims[0].noiseActive() {
		// The noise Pauli may be a cross-rank gate, so a rank that
		// failed the unitary cannot just skip it: agree on failure
		// first, then either all ranks apply noise or none do.
		var flag float64
		if err != nil {
			flag = 1
		}
		if ls.comm.AllreduceSum(flag) != 0 {
			if err == nil {
				err = errPeerRankFailed
			}
			return nil, err
		}
		for v := range gs {
			if nerr := ls.variant(v).noise(gs[v], gi); nerr != nil && err == nil {
				err = nerr
			}
		}
	}
	return nil, err
}

// measure runs measurement gate gi for every variant in turn. Each
// variant's collectives run even after an earlier variant failed on
// this rank — its peers cannot know — and the first error is reported
// at the sweep barrier.
func (ls *lockstep) measure(gs []quantum.Gate, gi int) ([]int, error) {
	outcomes := make([]int, len(gs))
	var firstErr error
	for v, s := range ls.sims {
		out, err := s.measureRank(ls.comm, ls.rss[v], gs[v].Target, gi)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		outcomes[v] = out
	}
	return outcomes, firstErr
}

// gate executes one non-sweep unitary gate on this rank — gs[v] for
// variant v, all of one shape — dispatching on the target qubit's index
// segment (§3.3).
func (ls *lockstep) gate(gs []quantum.Gate, gi int) error {
	s0 := ls.sims[0]
	offCtrl, blkCtrl, rankCtrl := s0.splitControls(gs[0].Controls)
	if ls.comm.Rank()&rankCtrl != rankCtrl {
		// §3.3: control in the rank segment is |0⟩ here — the whole
		// rank is unmodified. Cross-rank partners share the control
		// bit, so no peer is left waiting.
		return nil
	}
	q := gs[0].Target
	if q >= s0.offsetBits+s0.blockBits {
		// Cross-rank: the block exchange dominates and the SendRecv
		// protocol is sequential per variant; no codec sharing. Every
		// variant's exchange must run even after an earlier variant
		// failed — the peer rank cannot know, and skipping would strand
		// it mid-protocol.
		var firstErr error
		for v, s := range ls.sims {
			if err := s.applyCrossRank(ls.comm, ls.rss[v], gs[v], gi, offCtrl, blkCtrl); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	sigs := make([]string, len(gs))
	for v, g := range gs {
		sigs[v] = g.Signature()
	}
	if q < s0.offsetBits {
		// Both amplitudes of every pair live in the same block.
		return ls.blockPass(sigs, gi, blkCtrl, 0, 0, func(v int, x, _ []float64) {
			s0.applyOffsetGates(gs[v:v+1], x)
		})
	}
	// The pair spans two blocks of the same rank.
	ba := s0.blockAmps()
	return ls.blockPass(sigs, gi, blkCtrl, 1<<uint(q-s0.offsetBits), 0, func(v int, x, y []float64) {
		u := gs[v].U
		for o := 0; o < ba; o++ {
			if uint64(o)&offCtrl == offCtrl {
				applyPairSplit(u, x, y, o)
			}
		}
	})
}

// blockPass is the decompress → apply → recompress pass of §3.1, fanned
// out over this rank's blocks on the worker pool. It walks the blocks
// index-first: one worker takes block b through every variant back to
// back, consulting the §3.4 cache keyed on (sigs[v], level, compressed
// input), so a variant whose block has not diverged from an earlier
// one's gets a copy instead of a codec round trip. A hit hands back the
// exact blob the (deterministic) codec produced for the same input, so
// results are bit-identical to running each variant alone.
//
// Blocks failing the blkCtrl mask are untouched (§3.3). With pair > 0
// the pass walks block pairs (b, b|pair) instead — a block-segment
// target, the paper's two-block working set, two blobs per cache entry.
// Codec work is charged to the variant that issued it; passesSaved is
// credited per variant block actually run through the codec (a sweep's
// k-1 elided round trips). On success every variant charges one ledger
// factor at gate gi and takes the §3.7 escalation check.
func (ls *lockstep) blockPass(sigs []string, gi, blkCtrl, pair int, passesSaved int64, apply func(v int, x, y []float64)) error {
	s0 := ls.sims[0]
	lvls := make([]int, len(ls.rss))
	for v, rs := range ls.rss {
		lvls[v] = rs.level
		s0.hintBlocks(rs, blkCtrl, pair)
	}
	n := 1
	if pair > 0 {
		n = 2
	}
	err := s0.forBlocks(ls.rss, func(w *workerState, b int) error {
		if b&pair != 0 || b&blkCtrl != blkCtrl {
			return nil
		}
		blocks := [2]int{b, b | pair}
		bufs := [2][]float64{w.x, w.y}
		for v, rs := range ls.rss {
			s := ls.sims[v]
			st := &rs.workers[w.id].stats
			var in, out [2][]byte
			for i := 0; i < n; i++ {
				blob, err := rs.store.Get(blocks[i])
				if err != nil {
					return err
				}
				in[i] = blob
			}
			key := ""
			if ls.cache.enabled() {
				key = cacheKey(sigs[v], lvls[v], in[0], in[1])
				st.CacheLookups++
				if out1, out2, ok := ls.cache.get(key); ok {
					st.CacheHits++
					if ls.shared {
						st.CodecPassesShared += int64(n)
					}
					out = [2][]byte{out1, out2}
					for i := 0; i < n; i++ {
						if err := s.updateBlock(rs, blocks[i], append([]byte(nil), out[i]...)); err != nil {
							return err
						}
					}
					continue
				}
			}
			for i := 0; i < n; i++ {
				if err := s.decompressBlock(in[i], bufs[i], st); err != nil {
					return err
				}
			}
			start := time.Now()
			apply(v, w.x, w.y)
			st.ComputeTime += time.Since(start)
			for i := 0; i < n; i++ {
				blob, err := s.compressBlock(lvls[v], bufs[i], st)
				if err != nil {
					return err
				}
				if err := s.updateBlock(rs, blocks[i], blob); err != nil {
					return err
				}
				out[i] = blob
			}
			if key != "" {
				ls.cache.put(key, out[0], out[1])
			}
			st.CodecPassesSaved += passesSaved
		}
		return nil
	})
	if err != nil {
		return err
	}
	for v, rs := range ls.rss {
		ls.sims[v].noteLevel(rs, gi, lvls[v])
		ls.sims[v].maybeEscalate(rs)
	}
	return nil
}

// applyOffsetGates applies gates — each targeting an offset bit — in
// circuit order to one decoded block. Controls outside the offset
// segment are the caller's business (the blkCtrl filter, the rank
// check).
func (s *Simulator) applyOffsetGates(gates []quantum.Gate, x []float64) {
	ba := s.blockAmps()
	for i := range gates {
		offCtrl, _, _ := s.splitControls(gates[i].Controls)
		u, tMask := gates[i].U, 1<<uint(gates[i].Target)
		for base := 0; base < ba; base += tMask << 1 {
			for o := base; o < base+tMask; o++ {
				if uint64(o)&offCtrl == offCtrl {
					applyPair(u, x, o, o|tMask)
				}
			}
		}
	}
}

// splitControls partitions control qubits into offset-, block-, and
// rank-segment masks (§3.3's three cases for the control position).
func (s *Simulator) splitControls(controls []int) (offMask uint64, blkMask, rankMask int) {
	for _, c := range controls {
		switch {
		case c < s.offsetBits:
			offMask |= 1 << uint(c)
		case c < s.offsetBits+s.blockBits:
			blkMask |= 1 << uint(c-s.offsetBits)
		default:
			rankMask |= 1 << uint(c-s.offsetBits-s.blockBits)
		}
	}
	return offMask, blkMask, rankMask
}

// forBlocks fans fn out over the block indices on the worker pool of
// rss[0] — variant 0's rank, or the one rank of a single-state pass. fn
// receives a worker whose scratch buffers it owns exclusively; worker
// w's stats shard for variant v is rss[v].workers[w.id].stats, so codec
// work is charged to the variant that issued it without per-block
// locking. Shared rank state may only be touched through updateBlock
// and the (mutex-guarded) block cache. Block assignment is dynamic (an
// atomic counter), which is safe because no fan-out path depends on
// iteration order: per-block results are bit-identical for every worker
// count. After the fan-out every worker shard is merged into its rank
// stats.
func (s *Simulator) forBlocks(rss []*rankState, fn func(w *workerState, b int) error) error {
	nb := s.blocksPerRank()
	nw := nb
	for _, rs := range rss {
		nw = min(nw, len(rs.workers))
	}
	workers := rss[0].workers
	var firstErr error
	if nw <= 1 {
		for b := 0; b < nb; b++ {
			if firstErr = fn(workers[0], b); firstErr != nil {
				break
			}
		}
	} else {
		var (
			next int64 = -1
			fail int32
			once sync.Once
			wg   sync.WaitGroup
		)
		for _, w := range workers[:nw] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.ensure(2 * s.blockAmps())
				for atomic.LoadInt32(&fail) == 0 {
					b := atomic.AddInt64(&next, 1)
					if b >= int64(nb) {
						return
					}
					if err := fn(w, int(b)); err != nil {
						once.Do(func() { firstErr = err })
						atomic.StoreInt32(&fail, 1)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	for _, rs := range rss {
		for _, w := range rs.workers {
			rs.stats.addShard(w.stats)
			w.stats = Stats{}
		}
	}
	return firstErr
}
