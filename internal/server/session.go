package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"qcsim"
)

// Session is one tenant-owned simulator handle. Its engine lives in
// exactly one of three places:
//
//   - nowhere (fresh session: no job admitted yet — costs nothing),
//   - RAM (resident: sim != nil, reserved bytes charged to the ledger),
//   - disk (suspended: checkpointed through the block-streaming Save
//     path, sim closed, reservation released — an idle tenant costs
//     disk, not RAM).
//
// Transitions are transparent to clients: the next job or sample on a
// suspended session reserves, rebuilds, and Loads before executing.
// All session state is guarded by mu; the worker holds mu for the
// whole of a job's execution, so a session never runs two jobs at
// once (the Simulator is not concurrency-safe) — suspend/sample calls
// queue behind the running job.
type Session struct {
	ID     string
	Tenant string
	Qubits int

	seed      int64
	bondDim   int
	blockAmps int

	mu     sync.Mutex
	closed bool
	sim    *qcsim.Simulator
	// route is the admission controller's engine decision, made once
	// at the first admitted job and kept for the session's lifetime.
	route *Admission
	// reserved is the live ledger charge (0 while suspended or never
	// built).
	reserved int64
	// ckptPath points at the on-disk checkpoint: "" until the first
	// suspend, then retained across resume (the last-known-good state,
	// so a crash between resume and the next suspend loses the delta,
	// not the session) until the next successful suspend atomically
	// replaces it or closeSession deletes it.
	ckptPath string
	// snap is the last-known simulator accounting, kept across
	// suspend so SessionInfo stays truthful while the engine is on
	// disk.
	snap     qcsim.Snapshot
	lastUsed time.Time
	suspends int64
	resumes  int64
}

var errSessionClosed = errors.New("server: session closed")

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

func newSession(tenant string, req CreateSessionRequest) *Session {
	return &Session{
		ID:        newID(),
		Tenant:    tenant,
		Qubits:    req.Qubits,
		seed:      req.Seed,
		bondDim:   req.BondDim,
		blockAmps: req.BlockAmps,
		lastUsed:  time.Now(),
	}
}

// options materializes the session's engine configuration for its
// admitted route. Only public facade options — the server never
// reaches into internal packages.
func (s *Session) options(spillDir string) []qcsim.Option {
	opts := []qcsim.Option{qcsim.WithSeed(s.seed)}
	if s.blockAmps > 0 {
		opts = append(opts, qcsim.WithBlockAmps(s.blockAmps))
	}
	if s.bondDim > 0 {
		opts = append(opts, qcsim.WithBondDim(s.bondDim))
	}
	switch s.route.Code {
	case CodeAdmitMPS:
		opts = append(opts, qcsim.WithBackend(qcsim.BackendMPS))
	case CodeAdmitSpill:
		opts = append(opts,
			qcsim.WithBackend(qcsim.BackendCompressed),
			qcsim.WithSpill(spillDir, s.route.PricedBytes))
	default:
		opts = append(opts,
			qcsim.WithBackend(qcsim.BackendCompressed),
			qcsim.WithMemoryBudget(s.route.PricedBytes))
	}
	return opts
}

// ensureResident makes the session's engine live, reserving its
// priced bytes and replaying the suspended checkpoint if one exists.
// Caller holds s.mu. A rejection (ledger refusal on resume) is typed:
// the caller maps it to REJECT_BUDGET.
func (s *Session) ensureResident(led *Ledger, spillDir string, m *Metrics) error {
	if s.closed {
		return errSessionClosed
	}
	if s.sim != nil || s.route == nil {
		return nil
	}
	// Admission pre-reserves for a session's first build (s.reserved
	// already set); a resume from suspend must re-charge the ledger —
	// and may be refused if the tenant spent its allowance meanwhile.
	if s.reserved == 0 {
		if err := led.Reserve(s.Tenant, s.route.PricedBytes); err != nil {
			return err
		}
		s.reserved = s.route.PricedBytes
	}
	fail := func(err error) error {
		led.Release(s.Tenant, s.reserved)
		s.reserved = 0
		return err
	}
	sim, err := qcsim.New(s.Qubits, s.options(spillDir)...)
	if err != nil {
		return fail(err)
	}
	if s.ckptPath != "" {
		f, err := os.Open(s.ckptPath)
		if err == nil {
			err = sim.Load(f)
			f.Close()
		}
		if err != nil {
			sim.Close()
			return fail(fmt.Errorf("server: resume %s: %w", s.ID, err))
		}
		// The checkpoint is deliberately kept: it stays the
		// last-known-good state until the next successful suspend
		// replaces it (same path, tmp+rename) or the session closes.
		// Deleting it here would turn a crash right after resume into
		// total state loss.
		s.resumes++
		m.Resumes.Add(1)
	}
	s.sim = sim
	m.Builds.Add(1)
	return nil
}

// suspend checkpoints the engine to dir through the block-streaming
// Save path, closes it, and releases the reservation. Caller holds
// s.mu. Suspending a session that is already on disk (or never built)
// is a successful no-op; an MPS-routed session has no checkpoint
// format and reports CodeErrUnsupported.
func (s *Session) suspend(led *Ledger, dir string, m *Metrics) (Code, error) {
	if s.closed {
		return CodeErrNoSession, errSessionClosed
	}
	if s.sim == nil {
		return CodeOK, nil
	}
	if s.route != nil && s.route.Code == CodeAdmitMPS {
		return CodeErrUnsupported, errors.New("server: mps sessions have no checkpoint format (and cost little RAM); suspend applies to compressed sessions")
	}
	path := filepath.Join(dir, s.ID+".ckpt")
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return CodeErrInternal, err
	}
	if err := s.sim.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return CodeErrInternal, fmt.Errorf("server: suspend %s: %w", s.ID, err)
	}
	// Flush the file before the rename and the directory after it, so
	// a power loss leaves either the old checkpoint or the complete new
	// one under the final name, never an empty file.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return CodeErrInternal, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return CodeErrInternal, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return CodeErrInternal, err
	}
	if err := syncDir(dir); err != nil {
		os.Remove(path)
		return CodeErrInternal, err
	}
	s.snap = s.sim.Snapshot()
	s.sim.Close()
	s.sim = nil
	led.Release(s.Tenant, s.reserved)
	s.reserved = 0
	s.ckptPath = path
	s.suspends++
	m.Suspends.Add(1)
	return CodeOK, nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// closeSession tears the session down: engine closed (removing spill
// files), reservation released, checkpoint deleted. Idempotent.
// Caller holds s.mu.
func (s *Session) closeSession(led *Ledger, m *Metrics) {
	if s.closed {
		return
	}
	s.closed = true
	if s.sim != nil {
		s.snap = s.sim.Snapshot()
		s.sim.Close()
		s.sim = nil
	}
	if s.reserved > 0 {
		led.Release(s.Tenant, s.reserved)
		s.reserved = 0
	}
	if s.ckptPath != "" {
		os.Remove(s.ckptPath)
		s.ckptPath = ""
	}
	m.SessionsClosed.Add(1)
}

// info snapshots the session for the inspection endpoint.
func (s *Session) info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	inf := SessionInfo{
		Code:          CodeOK,
		SessionID:     s.ID,
		Tenant:        s.Tenant,
		Qubits:        s.Qubits,
		Suspended:     s.sim == nil && s.ckptPath != "",
		ReservedBytes: s.reserved,
		Suspends:      s.suspends,
		Resumes:       s.resumes,
	}
	if s.route != nil {
		inf.Backend = s.route.Backend
	}
	snap := s.snap
	if s.sim != nil {
		snap = s.sim.Snapshot()
	}
	inf.GatesRun = snap.GatesRun
	inf.Fidelity = snap.FidelityLowerBound
	inf.Footprint = snap.Footprint
	return inf
}

// touch refreshes the idle clock. Caller holds s.mu.
func (s *Session) touch() { s.lastUsed = time.Now() }
