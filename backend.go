package qcsim

import (
	"errors"
	"fmt"
	"io"

	"qcsim/circuit"
	"qcsim/internal/core"
	"qcsim/internal/quantum"
)

// Backend names accepted by WithBackend. The facade's engine contract
// (the `backend` interface below) has two first-class implementations:
// the paper's compressed full-state engine and the §2.2 tensor-network
// (MPS) comparator, plus an "auto" mode that picks per circuit.
const (
	// BackendCompressed is the compressed full-state engine (default):
	// every operation supported, memory 2^(n+4) bytes before
	// compression, graceful lossy degradation under a budget.
	BackendCompressed = "compressed"
	// BackendMPS is the matrix-product-state engine: polynomial memory
	// for low-entanglement circuits at any width, but measurement
	// collapse, multi-controlled gates, assertions, and checkpointing
	// report ErrUnsupportedOp.
	BackendMPS = "mps"
	// BackendAuto defers the choice to the first Run: MPS when the
	// circuit's planned two-qubit-gate structure keeps the estimated
	// bond dimension within WithBondDim's budget (and every gate is
	// MPS-runnable), the compressed engine otherwise.
	BackendAuto = "auto"
)

// backend is the engine contract the Simulator facade drives — the
// previously implicit method set of the compressed core, made explicit
// so engines are pluggable. Both implementations must agree on
// semantics: state persists across RunControlled calls, inspection
// never mutates, errors wrap the package sentinels, and RunControlled
// honors core.RunControl's abort/progress hooks at gate boundaries.
type backend interface {
	// Identity and geometry.
	Name() string
	Qubits() int

	// Execution. RunControlled applies every gate of c in order,
	// checking ctl.PollAbort at gate boundaries (a non-nil return stops
	// execution and is wrapped in the returned error) and invoking
	// ctl.OnGate after each completed gate.
	RunControlled(c *circuit.Circuit, ctl core.RunControl) error
	Reset() error
	SetBasisState(idx uint64) error

	// Cumulative accounting.
	GatesRun() int
	Measurements() []int
	MeasurementCount() int
	FidelityLowerBound() float64
	CompressedFootprint() int64
	CompressionRatio() float64
	BytesMoved() int64
	OverBudget() bool
	Stats() Stats

	// State inspection (never mutates).
	Amplitude(idx uint64) (complex128, error)
	FullState() ([]complex128, error)
	Norm() (float64, error)
	ProbabilityOne(q int) (float64, error)
	ExpectationZ(q int) (float64, error)
	ExpectationZZ(a, b int) (float64, error)
	MaxCutEnergy(edges []core.CutEdge) (float64, error)

	// Statistical assertions (ErrUnsupportedOp on backends without
	// full-state access to joint distributions).
	AssertClassical(q, value int, tol float64) error
	AssertSuperposition(q int, tol float64) error
	AssertProduct(a, b int, tol float64) error

	// Shot-based readout: probability tables built once, draws from the
	// backend's seeded sampling stream.
	NewSampler() (backendSampler, error)

	// Checkpointing (ErrUnsupportedOp where not implemented).
	Save(w io.Writer) error
	Load(r io.Reader) error

	// Close releases engine resources (the compressed backend's spill
	// files when WithSpill is active; a no-op everywhere else).
	Close() error
}

// backendSampler is the readout handle contract behind the public
// Sampler type.
type backendSampler interface {
	Sample(shots int) ([]uint64, error)
	TotalMass() float64
}

// compressedBackend adapts *core.Simulator to the backend interface.
// Everything is a direct delegation except NewSampler, whose concrete
// return type must be lifted to the interface.
type compressedBackend struct {
	*core.Simulator
}

func (b compressedBackend) Name() string { return BackendCompressed }

func (b compressedBackend) NewSampler() (backendSampler, error) {
	sp, err := b.Simulator.NewSampler()
	if err != nil {
		return nil, err
	}
	return compressedSampler{sp}, nil
}

// compressedSampler draws from the simulator's dedicated seeded
// sampling stream (the nil-rng fallback inside core).
type compressedSampler struct {
	sp *core.Sampler
}

func (s compressedSampler) Sample(shots int) ([]uint64, error) { return s.sp.Sample(nil, shots) }
func (s compressedSampler) TotalMass() float64                 { return s.sp.TotalMass() }

// pendingAuto holds a WithBackend("auto") simulator's construction
// inputs while the backend decision is still open — until the first
// Run supplies a circuit to analyze. Pre-Run inspection runs against a
// provisional MPS (see Simulator.b), and the only pre-Run mutation,
// SetBasisState, is recorded in basis so a rebuild replays it: no gate
// has executed yet, so swapping engines at decision time loses
// nothing.
type pendingAuto struct {
	qubits    int
	cfg       core.Config
	noiseProb float64
	bondDim   int
	basis     uint64
}

// choose picks the backend for the decision circuit: MPS iff the
// circuit is MPS-runnable, noiseless, not the uncompressed baseline,
// and its estimated bond dimension fits the χ budget; compressed
// otherwise.
func (p *pendingAuto) choose(c *circuit.Circuit) string {
	if p.noiseProb > 0 || p.cfg.Uncompressed {
		return BackendCompressed
	}
	if ok, _ := quantum.MPSCompatible(c); !ok {
		return BackendCompressed
	}
	if quantum.EstimateBondDim(c) > p.bondDim {
		return BackendCompressed
	}
	return BackendMPS
}

// build constructs the chosen backend in the recorded basis state.
// Errors wrap ErrBadConfig.
func (p *pendingAuto) build(name string) (backend, error) {
	var be backend
	if name == BackendMPS {
		mb, err := newMPSBackend(p.qubits, p.bondDim, p.cfg.Seed, p.cfg.FuseGates)
		if err != nil {
			return nil, err
		}
		be = mb
	} else {
		eng, err := core.New(p.cfg)
		if err != nil {
			if errors.Is(err, ErrSpill) {
				// A spill-tier I/O failure (unwritable spill dir, disk
				// full during Reset) is not a configuration mistake;
				// keep the ErrSpill identity for errors.Is.
				return nil, err
			}
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		if p.noiseProb > 0 {
			if err := eng.SetNoise(&core.NoiseModel{Prob: p.noiseProb}); err != nil {
				eng.Close()
				return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
			}
		}
		be = compressedBackend{eng}
	}
	if p.basis != 0 {
		if err := be.SetBasisState(p.basis); err != nil {
			return nil, err
		}
	}
	return be, nil
}
