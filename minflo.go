// Package minflo is a from-scratch Go implementation of MINFLOTRANSIT,
// the min-cost-flow based transistor/gate sizing tool of Sundararajan,
// Sapatnekar and Parhi (DAC 2000), together with every substrate the
// paper depends on: circuit netlists, an Elmore delay model in simple
// monotonic decomposition, static timing analysis, delay balancing with
// FSDU displacement, a min-cost network-flow solver, a simple monotonic
// program solver, and the TILOS baseline.
//
// # Quick start
//
//	ckt := minflo.RippleAdder(32, minflo.FABuffered)
//	sz, _ := minflo.NewSizer(nil)
//	dmin, _ := sz.MinDelay(ckt)
//	res, _ := sz.Minflotransit(ckt, 0.5*dmin)
//	fmt.Printf("area %.0f at CP %.0f ps\n", res.Area, res.CP)
//
// The experiments of the paper (Table 1 and Figure 7) are regenerated
// by cmd/experiments and the benchmarks in bench_test.go.
//
// # Serving
//
// For repeated queries against one circuit — target sweeps, what-if
// cost changes — cmd/minflod runs a hardened HTTP/JSON daemon that
// keeps solver sessions warm between requests, with admission control
// (429 + Retry-After), per-request deadline and flow-work budgets,
// byte-accounted LRU eviction, panic quarantine and graceful drain.
// Target moves are answered from the session's previous converged
// sizing via a trust-region policy (-trust-region, default 5%): small
// refinements several times faster than a cold solve, far jumps past
// the region without the TILOS restart; the response's "seed" field
// says which path answered.  Netlist edits (ECOs —
// extra loads, cell swaps, fanout rewires) stream through the same
// session via POST /v1/sessions/{id}/edit: value edits patch the
// resident coupling rows in place and repair arrivals over the edit's
// timing cone, rewires rebuild the solver state, and every batch is
// atomic — a rejected batch (or a query rejected for bad what-if
// weights) leaves the session bit-identical to never having received
// it.  internal/serve documents the endpoints, error codes and the
// replay-determinism contract ("deterministic given session history",
// edit batches included); a retrying client lives in the same
// package, and examples/service and examples/eco are runnable
// walkthroughs.
package minflo

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"minflo/internal/bench"
	"minflo/internal/cell"
	"minflo/internal/circuit"
	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/sta"
	"minflo/internal/tech"
	"minflo/internal/tilos"
)

// Re-exported circuit-construction types: the netlist model lives in an
// internal package; these aliases are the public surface.
type (
	// Circuit is a combinational netlist of library cells.
	Circuit = circuit.Circuit
	// Ref identifies a signal driver (primary input or gate output).
	Ref = circuit.Ref
	// CellKind selects a library cell.
	CellKind = cell.Kind
	// TechParams describes the process technology.
	TechParams = tech.Params
	// FAStyle selects full-adder decompositions in the generators.
	FAStyle = gen.FAStyle
)

// Library cells available to AddGate.
const (
	Inv   = cell.Inv
	Buf   = cell.Buf
	Nand2 = cell.Nand2
	Nand3 = cell.Nand3
	Nand4 = cell.Nand4
	Nor2  = cell.Nor2
	Nor3  = cell.Nor3
	Nor4  = cell.Nor4
	And2  = cell.And2
	And3  = cell.And3
	And4  = cell.And4
	Or2   = cell.Or2
	Or3   = cell.Or3
	Or4   = cell.Or4
	Xor2  = cell.Xor2
	Xnor2 = cell.Xnor2
	Aoi21 = cell.Aoi21
	Oai21 = cell.Oai21
)

// Full-adder styles for the generators.
const (
	FAXor      = gen.FAXor
	FANand     = gen.FANand
	FABuffered = gen.FABuffered
)

// NewCircuit returns an empty netlist.
func NewCircuit(name string) *Circuit { return circuit.New(name) }

// Default013 returns the default 0.13 µm-class technology parameters.
func Default013() TechParams { return tech.Default013() }

// ParseBench reads an ISCAS85 .bench netlist.  Malformed input
// returns a wrapped *bench.ParseError (with line information), never
// a panic — the parser is fuzzed on arbitrary bytes.
func ParseBench(r io.Reader, name string) (*Circuit, error) {
	c, err := bench.Parse(r, name)
	if err != nil {
		return nil, fmt.Errorf("minflo: parse %s: %w", name, err)
	}
	return c, nil
}

// WriteBench writes the circuit in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// Generators (see internal/gen for the substitution rationale).
var (
	// C17 is the six-NAND ISCAS c17 circuit.
	C17 = gen.C17
	// InverterChain builds an n-inverter chain.
	InverterChain = gen.InverterChain
	// RippleAdder builds a ripple-carry adder (the paper's adder32/256
	// rows use FABuffered).
	RippleAdder = gen.RippleAdder
	// ArrayMultiplier builds an n×n array multiplier (c6288 class).
	ArrayMultiplier = gen.ArrayMultiplier
	// Fork is the paper's Example 1 circuit.
	Fork = gen.Fork
	// Mesh builds a rows×cols NAND grid (deep scaling workload).
	Mesh = gen.Mesh
	// BalancedTree builds a binary NAND tree (shallow scaling workload).
	BalancedTree = gen.BalancedTree
	// Suite returns the full Table 1 benchmark list.
	Suite = gen.Suite
	// RandomLogic builds a random DAG (property-test workload).
	RandomLogic = gen.RandomLogic
)

// ErrInfeasible is returned when no sizing can meet the delay target.
var ErrInfeasible = errors.New("minflo: delay target unreachable")

// Abort taxonomy for MinflotransitCtx (aliased from the optimizer so
// errors.Is works at every layer): runs cut short by cancellation, an
// exhausted budget, a failed flow solve or a failed iteration return
// these alongside a best-so-far Sizing marked Partial.
var (
	// ErrCanceled reports a canceled context.
	ErrCanceled = core.ErrCanceled
	// ErrBudgetExhausted reports an exhausted Config.Budget or
	// Config.FlowWorkBudget.
	ErrBudgetExhausted = core.ErrBudgetExhausted
	// ErrEngineFailed wraps a D-phase flow-solve failure (a recovered
	// panic); the solver does not retry it.
	ErrEngineFailed = core.ErrEngineFailed
	// ErrIterationFailed wraps any other failed D/W iteration step.
	ErrIterationFailed = core.ErrIterationFailed
)

// Config parameterizes a Sizer. The zero value (or nil pointer) uses
// the defaults from the paper's experimental setup; a zero field
// selects its default, and NewSizer rejects negative (or NaN) numbers
// and a TilosBump at or below 1.
type Config struct {
	// Tech selects process parameters (default Default013).
	Tech TechParams
	// POLoad is the capacitance on every primary output in fF
	// (default 8 unit gate caps).
	POLoad float64
	// TilosBump is TILOS's upsizing factor (default 1.1, paper §3).
	TilosBump float64
	// Window is the D-phase budget window η (default 0.1).
	Window float64
	// MaxIters bounds MINFLOTRANSIT iterations (default 100).
	MaxIters int
	// CostScale integerizes D-phase arc costs (default 1e6).
	CostScale float64
	// FlowEngine is ignored: every D-phase runs successive shortest
	// paths over a radix heap (see EXPERIMENTS.md "One flow
	// algorithm").
	//
	// Deprecated: kept only so cmd/minflobench, its one remaining user,
	// still compiles; it goes with that benchmark's replica.
	FlowEngine string
	// Budget, when positive, bounds the wall clock of each
	// optimization run: exceeding it returns the best sizing reached
	// so far as a partial result with ErrBudgetExhausted.
	Budget time.Duration
	// FlowWorkBudget, when positive, caps the cumulative D-phase
	// flow work (mcmf poll operations) of each run; see Budget for
	// the exhaustion behavior.
	FlowWorkBudget int64
}

// Sizer runs the optimizers over circuits with fixed technology
// parameters.
type Sizer struct {
	cfg   Config
	model *delay.Model
}

// NewSizer builds a Sizer; cfg may be nil for defaults.
func NewSizer(cfg *Config) (*Sizer, error) {
	c := Config{}
	if cfg != nil {
		c = *cfg
	}
	if c.Tech == (TechParams{}) {
		c.Tech = tech.Default013()
	}
	if err := c.Tech.Validate(); err != nil {
		return nil, err
	}
	if c.TilosBump == 0 {
		c.TilosBump = 1.1
	}
	// Reject bad settings here rather than deep inside (or, for the
	// D/W knobs, silently around) the first optimization run.
	switch {
	case !(c.POLoad >= 0): // NaN fails every comparison
		return nil, fmt.Errorf("minflo: POLoad %g must be ≥ 0", c.POLoad)
	case !(c.TilosBump > 1):
		return nil, fmt.Errorf("minflo: TilosBump %g must exceed 1", c.TilosBump)
	case !(c.Window >= 0):
		return nil, fmt.Errorf("minflo: Window %g must be ≥ 0", c.Window)
	case c.MaxIters < 0:
		return nil, fmt.Errorf("minflo: MaxIters %d must be ≥ 0", c.MaxIters)
	case !(c.CostScale >= 0):
		return nil, fmt.Errorf("minflo: CostScale %g must be ≥ 0", c.CostScale)
	}
	m := delay.NewModel(c.Tech)
	if c.POLoad > 0 {
		m.POLoad = c.POLoad
	}
	return &Sizer{cfg: c, model: m}, nil
}

// Sizing is the outcome of an optimization run.
type Sizing struct {
	// Sizes, indexed by gate, in units of the minimum size.
	Sizes []float64
	// Area is Σ UnitArea·x (total transistor width).
	Area float64
	// CP is the critical-path delay in ps.
	CP float64
	// MinArea is the all-minimum-size area (for normalized reporting).
	MinArea float64
	// Iterations is the D/W iteration count (MINFLOTRANSIT only).
	Iterations int
	// TilosArea/TilosCP describe the initial TILOS solution
	// (MINFLOTRANSIT only).
	TilosArea float64
	TilosCP   float64
	// Partial marks a run cut short by cancellation, an exhausted
	// budget or a failed flow solve: Sizes/Area/CP hold the best
	// feasible sizing reached before it (see MinflotransitCtx).
	Partial bool
}

// problem builds the gate-sizing problem for the circuit.
func (s *Sizer) problem(c *Circuit) (*dag.Problem, error) {
	return dag.GateLevel(c, s.model)
}

// MinDelay returns Dmin: the critical-path delay of the circuit with
// every gate at minimum size.
func (s *Sizer) MinDelay(c *Circuit) (float64, error) {
	p, err := s.problem(c)
	if err != nil {
		return 0, err
	}
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		return 0, err
	}
	return tm.CP, nil
}

// Delay returns the critical-path delay at the circuit's current sizes.
func (s *Sizer) Delay(c *Circuit) (float64, error) {
	p, err := s.problem(c)
	if err != nil {
		return 0, err
	}
	tm, err := sta.Analyze(p.G, p.Delays(c.Sizes()))
	if err != nil {
		return 0, err
	}
	return tm.CP, nil
}

// TILOS sizes the circuit with the baseline heuristic to meet target T
// (ps). The circuit's gate sizes are updated in place.
func (s *Sizer) TILOS(c *Circuit, T float64) (*Sizing, error) {
	p, err := s.problem(c)
	if err != nil {
		return nil, err
	}
	r, err := tilos.Size(p, T, nil, tilos.Options{Bump: s.cfg.TilosBump})
	if err != nil {
		if errors.Is(err, tilos.ErrInfeasible) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	if err := p.ApplyToCircuit(c, r.X); err != nil {
		return nil, err
	}
	return &Sizing{
		Sizes:   r.X,
		Area:    r.Area,
		CP:      r.CP,
		MinArea: p.MinAreaValue(),
	}, nil
}

// Minflotransit sizes the circuit with the full two-phase optimizer to
// meet target T (ps). The circuit's gate sizes are updated in place.
func (s *Sizer) Minflotransit(c *Circuit, T float64) (*Sizing, error) {
	return s.MinflotransitCtx(context.Background(), c, T)
}

// MinflotransitCtx is Minflotransit with cancellation and budgets:
// the context (and the Config.Budget deadline) is polled between D/W
// iterations and inside the flow solver's augmentation loops, so even
// a solver stuck deep in one min-cost-flow solve stops promptly.  A
// run cut short still answers usefully when it can: the returned
// Sizing holds the best feasible sizing reached before the abort (the
// TILOS seed if no D/W iteration completed), is marked Partial, is
// applied to the circuit, and comes WITH the non-nil ErrCanceled /
// ErrBudgetExhausted error — callers must treat (sz != nil, err !=
// nil) as "partial answer", not success.  A failed D-phase flow solve
// answers the same way with ErrEngineFailed, and any other failed D/W
// iteration with ErrIterationFailed.  An abort or failure
// before any sizing exists returns (nil, error) and leaves the circuit
// untouched.
func (s *Sizer) MinflotransitCtx(ctx context.Context, c *Circuit, T float64) (*Sizing, error) {
	p, err := s.problem(c)
	if err != nil {
		return nil, err
	}
	r, err := core.SizeCtx(ctx, p, T, s.coreOptions())
	if err != nil {
		if r != nil && r.Partial {
			// Best-so-far partial result: apply it so the circuit
			// reflects the answer, and hand both back.
			if aerr := p.ApplyToCircuit(c, r.X); aerr != nil {
				return nil, aerr
			}
			return &Sizing{
				Sizes:      r.X,
				Area:       r.Area,
				CP:         r.CP,
				MinArea:    p.MinAreaValue(),
				Iterations: r.Iterations,
				TilosArea:  r.TilosArea,
				TilosCP:    r.TilosCP,
				Partial:    true,
			}, err
		}
		if errors.Is(err, core.ErrInfeasible) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	if err := p.ApplyToCircuit(c, r.X); err != nil {
		return nil, err
	}
	return &Sizing{
		Sizes:      r.X,
		Area:       r.Area,
		CP:         r.CP,
		MinArea:    p.MinAreaValue(),
		Iterations: r.Iterations,
		TilosArea:  r.TilosArea,
		TilosCP:    r.TilosCP,
	}, nil
}

func (s *Sizer) coreOptions() core.Options {
	return core.Options{
		Window:         s.cfg.Window,
		MaxIters:       s.cfg.MaxIters,
		CostScale:      s.cfg.CostScale,
		Budget:         s.cfg.Budget,
		FlowWorkBudget: s.cfg.FlowWorkBudget,
		Tilos:          tilos.Options{Bump: s.cfg.TilosBump},
	}
}
