// Package dcs solves the D-phase linear program of MINFLOTRANSIT:
//
//	maximize   Σ objective terms  c·(r(p) − r(m))
//	subject to r(u) − r(v) ≤ w(u,v)          (difference constraints)
//	           r(v) = 0 for pinned v          (PIs and the dummy sink O)
//
// via its dual, a minimum-cost network flow (paper §2.3.1, ref [14]).
//
// Each difference constraint becomes an uncapacitated arc u→v of cost w;
// each objective term contributes supply +c at p and demand −c at m
// (balance is preserved by construction, mirroring the paper's
// Σ C_i·(r(Dmy(i)) − r(i)) objective).  Pinned variables are tied to a
// ground node with a pair of zero-cost constraints.  The optimal r is
// recovered from the node potentials of the flow solver, and strong
// duality (primal objective == dual flow cost) is checked before
// returning, so every solution is certified optimal.
//
// A System separates build-once topology from per-iteration data.  The
// constraint endpoints, objective endpoints and pins define the flow
// network, which is built once and cached (arc IDs recorded per
// constraint); SetWeight and SetObjectiveCoeff update costs and
// supplies in place, so the D/W iteration of internal/core re-solves
// the same network dozens of times without reconstructing it — each
// re-solve also warm-starts the flow solver from the previous duals.
//
// Re-solves are incremental: Solve diffs every constraint's integerized
// cost against the value currently priced into the flow network and
// hands exactly the changed-arc set to mcmf's ResolveChanged, which
// repairs the previous optimal flow (drain-and-reroute) instead of
// rerouting every supply.  Supply deltas are diffed inside mcmf, and
// arc capacities use a stable doubling bound (capBound) so they only
// count as changed when the bound actually grows.
//
// Costs and supplies are integerized by scaling (the paper's
// "multiply by a power of 10 and round" step); Options selects the
// scales.
package dcs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"minflo/internal/mcmf"
)

// ErrInfeasible is returned when the constraint system has no solution
// (a negative-weight cycle in the constraint graph).
var ErrInfeasible = errors.New("dcs: constraint system infeasible (negative cycle)")

// ErrUnbounded is returned when the objective can be improved without
// bound (should not occur for well-formed D-phase instances, where r=0
// is feasible and all displacement windows are finite).
var ErrUnbounded = errors.New("dcs: objective unbounded")

type constraint struct {
	u, v int
	w    float64
}

type objTerm struct {
	plus, minus int
	coeff       float64
}

// System accumulates a difference-constraint LP and owns the cached
// min-cost-flow network its Solve calls reuse.
type System struct {
	n      int
	cons   []constraint
	obj    []objTerm
	pinned []int

	// Cached flow network.  Valid while builtVersion == topoVersion;
	// adding constraints, objectives or pins bumps topoVersion and
	// forces a rebuild on the next Solve.
	flow         *mcmf.Solver
	consArc      []int    // flow arc ID per constraint
	pinArc       [][2]int // flow arc pair per pin
	topoVersion  int
	builtVersion int
	builds       int

	// Incremental-re-solve state: the integerized cost currently priced
	// into the flow network per constraint (valid when priced), the
	// stable capacity bound on the uncapacitated arcs, and the reused
	// changed-arc buffer handed to ResolveChanged.
	lastCost []int64
	priced   bool
	capBound int64
	changed  []int32
	// pending accumulates the arcs re-priced since the last flow solve
	// that actually completed: SetCost applies immediately, so a
	// canceled or failed solve leaves its cost edits in the network
	// while the solver's rolled-back optimum still prices the OLD
	// costs.  The next ResolveChanged must therefore list those arcs
	// too, or it repairs against stale potentials and the optimality
	// certificate fails.  pendingIn dedups arcs across retries.
	pending   []int32
	pendingIn []bool

	// sol is the reused Solution storage: Solve rewrites it in place so
	// steady-state re-solves allocate nothing.
	sol Solution
}

// NewSystem creates a system over n variables r(0..n-1).
func NewSystem(n int) *System {
	return &System{n: n, builtVersion: -1}
}

// NumVars returns the number of variables.
func (s *System) NumVars() int { return s.n }

// NumConstraints returns the number of difference constraints added.
func (s *System) NumConstraints() int { return len(s.cons) }

// NumObjectives returns the number of objective terms added.
func (s *System) NumObjectives() int { return len(s.obj) }

// Builds returns how many times the flow network has been constructed —
// a correctly reused System reports 1 no matter how many Solve calls it
// served (asserted by the core optimizer tests).
func (s *System) Builds() int { return s.builds }

// AddConstraint adds r(u) − r(v) ≤ w and returns the constraint's ID
// for later SetWeight updates.
func (s *System) AddConstraint(u, v int, w float64) int {
	if u < 0 || u >= s.n || v < 0 || v >= s.n {
		panic(fmt.Sprintf("dcs: AddConstraint(%d,%d) out of range [0,%d)", u, v, s.n))
	}
	checkWeight(w)
	s.cons = append(s.cons, constraint{u, v, w})
	s.topoVersion++
	return len(s.cons) - 1
}

// SetWeight updates the right-hand side of constraint id in place:
// r(u) − r(v) ≤ w with the original endpoints.  The cached flow network
// is kept; only the arc cost changes on the next Solve.
func (s *System) SetWeight(id int, w float64) {
	checkWeight(w)
	s.cons[id].w = w
}

// AddObjective adds the term coeff·(r(plus) − r(minus)) to the
// maximized objective and returns the term's ID for later
// SetObjectiveCoeff updates.  Coefficients must be non-negative (the
// paper's C_i > 0); zero-coefficient terms are kept so IDs stay stable
// across coefficient updates.
func (s *System) AddObjective(plus, minus int, coeff float64) int {
	if plus < 0 || plus >= s.n || minus < 0 || minus >= s.n {
		panic(fmt.Sprintf("dcs: AddObjective(%d,%d) out of range [0,%d)", plus, minus, s.n))
	}
	checkCoeff(coeff)
	s.obj = append(s.obj, objTerm{plus, minus, coeff})
	s.topoVersion++
	return len(s.obj) - 1
}

// SetObjectiveCoeff updates the coefficient of objective term id in
// place (endpoints unchanged).
func (s *System) SetObjectiveCoeff(id int, coeff float64) {
	checkCoeff(coeff)
	s.obj[id].coeff = coeff
}

func checkWeight(w float64) {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		panic("dcs: non-finite constraint weight")
	}
}

func checkCoeff(c float64) {
	if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		panic("dcs: objective coefficient must be finite and non-negative")
	}
}

// Pin forces r(v) = 0 in the solution.
func (s *System) Pin(v int) {
	if v < 0 || v >= s.n {
		panic(fmt.Sprintf("dcs: Pin(%d) out of range [0,%d)", v, s.n))
	}
	s.pinned = append(s.pinned, v)
	s.topoVersion++
}

// Options controls integerization and abort sources. Zero values
// select the defaults.
type Options struct {
	// CostScale multiplies constraint weights before rounding to int64.
	// Default 1e6 (the paper: "by choosing appropriate powers of 10
	// arbitrary accuracy can be maintained").
	CostScale float64
	// SupplyScale multiplies objective coefficients before rounding.
	// Default 1e4.
	SupplyScale float64
	// Engine is ignored: every flow solve runs mcmf's one algorithm.
	//
	// Deprecated: kept only so cmd/minflobench, its one remaining user,
	// still compiles; it goes with that benchmark's replica.
	Engine string
	// Parallelism is ignored: every flow solve is serial.
	//
	// Deprecated: kept only so cmd/minflobench, its one remaining user,
	// still compiles; it goes with that benchmark's replica.
	Parallelism int
	// Deadline, when non-zero, aborts flow solves running past it with
	// mcmf.ErrBudgetExhausted (sampled at the flow solver's poll
	// points).
	Deadline time.Time
	// WorkBudget, when positive, caps the cumulative flow work (in
	// mcmf poll operations) across every solve on the cached network;
	// exceeding it returns mcmf.ErrBudgetExhausted.
	WorkBudget int64
	// EngineFallback is ignored: a failed flow solve surfaces as
	// mcmf.ErrEngineFailed, with no second attempt.
	//
	// Deprecated: kept only so cmd/minflobench, its one remaining user,
	// still compiles; it goes with that benchmark's replica.
	EngineFallback bool
}

func (o Options) withDefaults() Options {
	if o.CostScale == 0 {
		o.CostScale = 1e6
	}
	if o.SupplyScale == 0 {
		o.SupplyScale = 1e4
	}
	return o
}

// Solution of a System.
type Solution struct {
	R         []float64 // optimal r, pinned entries exactly 0
	Objective float64   // Σ coeff·(r(plus) − r(minus)) at the optimum
	FlowCost  float64   // dual objective (scaled units), for diagnostics
	Arcs      int       // size of the flow instance
}

// ensureFlow returns the cached flow network, rebuilding it only when
// the topology changed since the last build.  Costs, capacities and
// supplies are diffed in by Solve on every call, so the returned
// network only needs correct arcs.
func (s *System) ensureFlow() *mcmf.Solver {
	if s.flow != nil && s.builtVersion == s.topoVersion {
		return s.flow
	}
	ground := s.n
	f := mcmf.New(s.n + 1)
	f.Reserve(len(s.cons) + 2*len(s.pinned))
	s.consArc = s.consArc[:0]
	for _, c := range s.cons {
		s.consArc = append(s.consArc, f.AddArc(c.u, c.v, 0, 0))
	}
	s.pinArc = s.pinArc[:0]
	for _, v := range s.pinned {
		// r(v) = r(ground): zero-cost arcs both ways.
		s.pinArc = append(s.pinArc, [2]int{
			f.AddArc(v, ground, 0, 0),
			f.AddArc(ground, v, 0, 0),
		})
	}
	s.flow = f
	s.builtVersion = s.topoVersion
	s.builds++
	// Fresh network: nothing is priced yet, everything below starts
	// from the full-solve path.
	s.priced = false
	s.capBound = 0
	if cap(s.lastCost) < len(s.cons) {
		s.lastCost = make([]int64, len(s.cons))
	}
	s.lastCost = s.lastCost[:len(s.cons)]
	s.pending = s.pending[:0]
	numArcs := len(s.cons) + 2*len(s.pinned)
	if cap(s.pendingIn) < numArcs {
		s.pendingIn = make([]bool, numArcs)
	}
	s.pendingIn = s.pendingIn[:numArcs]
	for i := range s.pendingIn {
		s.pendingIn[i] = false
	}
	return f
}

// Network returns the cached flow network of the last Solve (nil
// before the first).  It is for benchmarks and diagnostics that
// re-solve the D-phase network directly; mutating it behind the
// System's back leaves the next Solve's incremental bookkeeping stale.
func (s *System) Network() *mcmf.Solver { return s.flow }

// FlowEngineStats reports the cached network's flow counters — the
// observable record of how many Solve calls ran incrementally
// (Stats.Resolves) versus from scratch.
func (s *System) FlowEngineStats() mcmf.Stats {
	if s.flow == nil {
		return mcmf.Stats{}
	}
	return s.flow.EngineStats()
}

// FlowWorkDone reports the cached network's cumulative armed flow
// work (mcmf poll operations).  Long-lived callers running many
// solves with per-call work budgets add this base to their per-call
// allowance, because Options.WorkBudget caps the solver's cumulative
// counter, not one call.
func (s *System) FlowWorkDone() int64 {
	if s.flow == nil {
		return 0
	}
	return s.flow.WorkDone()
}

// Solve maps the system to its min-cost-flow dual, solves it, verifies
// optimality certificates, and returns the optimal r.  Repeated calls
// reuse the cached network (updating costs, capacities and supplies in
// place) as long as no constraints, objectives or pins were added in
// between.  The returned Solution is owned by the System and rewritten
// by the next Solve; callers needing a snapshot must copy it.
func (s *System) Solve(opt Options) (*Solution, error) {
	return s.SolveCtx(context.Background(), opt)
}

// SolveCtx is Solve with cancellation: ctx is polled inside the flow
// solver's inner loops (and the degenerate feasibility path), so a
// cancellation mid-solve returns mcmf.ErrCanceled within one poll
// granule and leaves the cached network reusable — the next SolveCtx
// behaves as if the canceled call never ran.
func (s *System) SolveCtx(ctx context.Context, opt Options) (*Solution, error) {
	opt = opt.withDefaults()
	ground := s.n

	var totalSupply int64
	for _, t := range s.obj {
		totalSupply += int64(math.Round(t.coeff * opt.SupplyScale))
	}
	if totalSupply == 0 {
		// Degenerate objective: any feasible point is optimal.  Solve the
		// pure feasibility problem with Bellman–Ford on the constraint
		// graph (edge v→u of weight w per constraint r_u − r_v ≤ w).
		r, err := s.feasiblePoint(ctx)
		if err != nil {
			return nil, err
		}
		s.sol = Solution{R: r}
		return &s.sol, nil
	}

	f := s.ensureFlow()
	f.SetContext(ctx)
	f.SetDeadline(opt.Deadline)
	f.SetWorkBudget(opt.WorkBudget)

	// Supplies: zero, then accumulate the integerized objective terms
	// (mcmf diffs them against the last routed configuration itself).
	for v := 0; v <= s.n; v++ {
		f.SetSupply(v, 0)
	}
	for _, t := range s.obj {
		c := int64(math.Round(t.coeff * opt.SupplyScale))
		if c == 0 {
			continue
		}
		f.AddSupply(t.plus, c)
		f.AddSupply(t.minus, -c)
	}

	// Uncapacitated arcs: cap at a stable doubling bound ≥ total supply
	// (an optimal flow needs no more on any arc when no negative cycles
	// exist).  Keeping the bound fixed while the supply wobbles between
	// iterations keeps capacities out of the changed set.
	changed := s.changed[:0]
	if totalSupply > s.capBound {
		s.capBound = 1024
		for s.capBound < totalSupply {
			s.capBound *= 2
		}
		for _, a := range s.consArc {
			f.UpdateCapacity(a, s.capBound)
			changed = append(changed, int32(a))
		}
		for _, pa := range s.pinArc {
			f.UpdateCapacity(pa[0], s.capBound)
			f.UpdateCapacity(pa[1], s.capBound)
			changed = append(changed, int32(pa[0]), int32(pa[1]))
		}
	}
	for i, c := range s.cons {
		// Floor (not round) the scaled weight: the integerized feasible
		// region is then a subset of the real one, so the recovered r
		// satisfies every original constraint exactly.  This keeps the
		// D-phase causality constraints (edge slack ≥ 0) safe.
		ic := int64(math.Floor(c.w * opt.CostScale))
		if !s.priced || ic != s.lastCost[i] {
			f.SetCost(s.consArc[i], ic)
			s.lastCost[i] = ic
			changed = append(changed, int32(s.consArc[i]))
		}
	}
	s.changed = changed // retain grown capacity
	s.priced = true
	// Merge this call's diffs into the arcs still pending from solves
	// that never completed (canceled, budget-exhausted or failed): the
	// network already holds all of those costs, the solver's optimum
	// prices none of them.
	for _, a := range changed {
		if !s.pendingIn[a] {
			s.pendingIn[a] = true
			s.pending = append(s.pending, a)
		}
	}
	clearPending := func() {
		for _, a := range s.pending {
			s.pendingIn[a] = false
		}
		s.pending = s.pending[:0]
	}

	// Incremental re-flow with the exact changed-arc set; the first
	// solve on a fresh network (or after a failed one) falls back to a
	// full solve inside the flow solver.
	if _, err := f.ResolveChanged(s.pending); err != nil {
		return nil, mapFlowErr(err)
	}
	clearPending()
	sol, err := s.recover(f, opt, ground)
	if err == nil {
		return sol, nil
	}
	if !errors.Is(err, errRecoveredInfeasible) {
		// Certificate or strong-duality failures are genuine solver
		// defects — propagate them rather than masking them behind a
		// silent (and permanently slower) full re-solve.
		return nil, err
	}
	// An infeasible recovered r means the constraint system itself is
	// infeasible: the incremental re-flow prices configured negative
	// cycles away instead of detecting them (see mcmf resolve.go), so
	// the cycle surfaces here rather than as mcmf.ErrNegativeCycle.
	// Re-solve from clean residuals, which restores the detection
	// contract (a truly infeasible system now returns ErrInfeasible).
	f.Reset()
	if _, ferr := f.Solve(); ferr != nil {
		return nil, mapFlowErr(ferr)
	}
	return s.recover(f, opt, ground)
}

// errRecoveredInfeasible tags a recovered r that violates a
// constraint — the one recover() failure the warm-resolve path is
// allowed to retry from clean residuals (it is how an infeasible
// system manifests after an incremental re-flow).
var errRecoveredInfeasible = errors.New("dcs: recovered solution infeasible")

// mapFlowErr translates mcmf solve errors to the dcs sentinels.
func mapFlowErr(err error) error {
	switch {
	case errors.Is(err, mcmf.ErrNegativeCycle):
		return ErrInfeasible
	case errors.Is(err, mcmf.ErrInfeasible):
		// Dual infeasible == primal unbounded.
		return ErrUnbounded
	default:
		return err
	}
}

// recover extracts and certifies the solution from a solved flow
// network: optimality certificate, r from the potentials, primal
// feasibility, and strong duality.
func (s *System) recover(f *mcmf.Solver, opt Options, ground int) (*Solution, error) {
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("dcs: flow certificate failed: %w", err)
	}

	// r(v) = −(pot(v) − pot(ground)) / CostScale.
	base := f.Potential(ground)
	if cap(s.sol.R) < s.n {
		s.sol.R = make([]float64, s.n)
	}
	r := s.sol.R[:s.n]
	for v := 0; v < s.n; v++ {
		r[v] = -float64(f.Potential(v)-base) / opt.CostScale
	}
	for _, v := range s.pinned {
		r[v] = 0 // exact (tied to ground)
	}
	if err := s.checkFeasible(r); err != nil {
		return nil, fmt.Errorf("%w: %v", errRecoveredInfeasible, err)
	}

	sol := &s.sol
	*sol = Solution{
		R:        r,
		FlowCost: f.TotalCost(),
		Arcs:     len(s.cons) + 2*len(s.pinned),
	}
	for _, t := range s.obj {
		sol.Objective += t.coeff * (r[t.plus] - r[t.minus])
	}
	// Strong-duality certificate in scaled units:
	//   Σ c_int · r_int  ==  flow cost.
	var primal float64
	for _, t := range s.obj {
		c := math.Round(t.coeff * opt.SupplyScale)
		primal += c * (-(float64(f.Potential(t.plus) - f.Potential(t.minus))))
	}
	if !closeRel(primal, sol.FlowCost, 1e-6) {
		return nil, fmt.Errorf("dcs: strong duality violated: primal %g vs dual %g", primal, sol.FlowCost)
	}
	return sol, nil
}

// feasiblePoint returns any r satisfying all constraints and pins, or
// ErrInfeasible. Standard difference-constraint solution: shortest
// distances from a virtual source (plus zero-weight ties between pinned
// variables), then a shift so pinned entries are exactly zero.
func (s *System) feasiblePoint(ctx context.Context) ([]float64, error) {
	type edge struct {
		from, to int
		w        float64
	}
	var edges []edge
	for _, c := range s.cons {
		edges = append(edges, edge{c.v, c.u, c.w})
	}
	if len(s.pinned) > 1 {
		// Star of zero-weight ties through the first pin (forces equality).
		p0 := s.pinned[0]
		for _, q := range s.pinned[1:] {
			edges = append(edges, edge{p0, q, 0}, edge{q, p0, 0})
		}
	}
	dist := make([]float64, s.n) // virtual source at distance 0 to all
	for round := 0; round < s.n; round++ {
		if ctx != nil && ctx.Err() != nil {
			return nil, mcmf.ErrCanceled
		}
		changed := false
		for _, e := range edges {
			if nd := dist[e.from] + e.w; nd < dist[e.to]-1e-12 {
				dist[e.to] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
		if round == s.n-1 {
			return nil, ErrInfeasible
		}
	}
	if len(s.pinned) > 0 {
		base := dist[s.pinned[0]]
		for i := range dist {
			dist[i] -= base
		}
		for _, p := range s.pinned {
			dist[p] = 0
		}
	}
	if err := s.checkFeasible(dist); err != nil {
		return nil, ErrInfeasible
	}
	return dist, nil
}

// checkFeasible verifies every constraint at r. Because constraint
// weights are floored during integerization, solutions are feasible in
// real units too; the tolerance only absorbs float arithmetic fuzz.
func (s *System) checkFeasible(r []float64) error {
	const tol = 1e-9
	for _, c := range s.cons {
		slack := c.w - (r[c.u] - r[c.v])
		lim := tol * (1 + math.Abs(c.w))
		if slack < -lim {
			return fmt.Errorf("dcs: constraint r(%d)-r(%d) <= %g violated by %g", c.u, c.v, c.w, -slack)
		}
	}
	return nil
}

func closeRel(a, b, tol float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*(1+m)
}
