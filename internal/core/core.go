// Package core implements the MINFLOTRANSIT optimizer (paper §2.4):
// an initial TILOS sizing followed by alternating D-phases (delay
// budget redistribution via the min-cost-flow dual of an FSDU
// displacement LP) and W-phases (minimum-area sizing for the budgets
// via a Simple Monotonic Program), iterated until the area improvement
// is negligible.
//
// The D-phase constraint network has a fixed topology for the life of a
// problem (one window-constraint pair and one objective term per
// sizable vertex, one causality constraint per non-self edge of the
// augmented DAG), so Size builds the dcs.System exactly once and each
// iteration only rewrites weights and coefficients in place — the
// flow network underneath is likewise built once and warm-started
// (see internal/dcs and internal/mcmf).  Per-iteration scratch
// (delay vectors, budgets, windows) is preallocated, and the post-
// W-phase retiming runs on a persistent incremental sta.Arrivals
// engine instead of a full analysis per iteration.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"minflo/internal/balance"
	"minflo/internal/dag"
	"minflo/internal/dcs"
	"minflo/internal/lin"
	"minflo/internal/mcmf"
	"minflo/internal/smp"
	"minflo/internal/sta"
	"minflo/internal/tilos"
)

// ErrInfeasible is returned when no sizing meets the delay target.
var ErrInfeasible = errors.New("core: delay target unreachable")

// Abort taxonomy, aliased from the flow layer so errors.Is works
// across layers: SizeCtx returns these (possibly wrapped) when a run
// is cut short, always together with a best-so-far partial Result.
var (
	// ErrCanceled reports that the SizeCtx context was canceled.
	ErrCanceled = mcmf.ErrCanceled
	// ErrBudgetExhausted reports that Options.Budget (wall clock) or
	// Options.FlowWorkBudget (flow work) ran out.
	ErrBudgetExhausted = mcmf.ErrBudgetExhausted
	// ErrEngineFailed wraps a flow-solve panic; it too comes with the
	// best-so-far partial Result, and a Session that returns it should
	// be rebuilt.
	ErrEngineFailed = mcmf.ErrEngineFailed
)

// answersPartial reports whether err comes with a best-so-far partial
// Result: a run cut short (ErrCanceled, ErrBudgetExhausted) or a
// failed flow solve (ErrEngineFailed), at any layer.  Every layer
// below maps its aborts onto this taxonomy, so a bare context error
// never reaches here.
func answersPartial(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrBudgetExhausted) ||
		errors.Is(err, ErrEngineFailed)
}

// Options tune the optimizer. Zero values select defaults.
type Options struct {
	// Window is the relative budget window η: each D-phase may move a
	// vertex's delay budget by at most ±η·delay (paper §2.3.1 step 3
	// requires MINΔD/MAXΔD "small" for Taylor validity — the first-order
	// area prediction misses by O(η²), so large windows overshoot).
	// Default 0.1.
	Window float64
	// MaxIters bounds the D/W iterations (paper §3 reports "a few tens",
	// ≤100 on the steepest curve segments). Default 100.
	MaxIters int
	// CostScale / SupplyScale integerize the D-phase flow (paper's
	// power-of-10 scaling). Defaults 1e6 / 1e4.
	CostScale, SupplyScale float64
	// FlowEngine is ignored: every D-phase runs mcmf's one flow
	// algorithm.
	//
	// Deprecated: kept only so cmd/minflobench, its one remaining user,
	// still compiles; it goes with that benchmark's replica.
	FlowEngine string
	// Parallelism is ignored: every run is serial.
	//
	// Deprecated: kept only so cmd/minflobench, its one remaining user,
	// still compiles; it goes with that benchmark's replica.
	Parallelism int
	// Budget, when positive, bounds the wall-clock time of the whole
	// run: the deadline is sampled between iterations and inside the
	// flow solver's poll loops, and exceeding it returns the
	// best-so-far sizing as a partial Result with ErrBudgetExhausted.
	Budget time.Duration
	// FlowWorkBudget, when positive, caps the cumulative D-phase flow
	// work (in mcmf poll operations — augmentations, discharges,
	// Bellman–Ford rounds) across the run; exceeding it returns a
	// partial Result with ErrBudgetExhausted.
	FlowWorkBudget int64
	// TrustRegion, when positive, enables warm seeding on Session
	// Resize: a query whose area weights were edited by at most
	// TrustRegion relative since the previous clean answer starts the
	// D/W loop from that answer instead of a TILOS restart, whatever
	// its target.  The target's move against TrustRegion picks the
	// schedule: a refinement (within it) runs the short endgame
	// schedule; a far jump (beyond it) runs the cold window schedule
	// without the regrow, under MaxIters — unless the target lies
	// within TrustRegion of one of the session's earlier converged
	// answers (its library, emptied by any accepted weight or edit
	// batch), in which case it is a refinement from that answer.  A
	// seed whose repair or iteration fails falls back to the cold path
	// transparently.  Result.Seed reports the start point taken,
	// Result.FarSeed and Result.LibrarySeed the schedule.  With seeding
	// on, answers are deterministic given the session's query history
	// rather than per-query — see the Session docs.  0 (the default)
	// keeps the per-query cold contract.  One-shot SizeCtx runs have no
	// history, so the field only matters for Sessions.
	TrustRegion float64
	// EditConeBudget bounds how much of the circuit an ECO edit batch
	// (Session.ApplyEdits) may invalidate while keeping the warm start:
	// when the forward timing cone of the edited vertices exceeds this
	// fraction of the sizable vertices, the session drops its
	// trust-region seed and rebuilds the D-phase scratch cold — a cone
	// that wide invalidates most of the resident state anyway, and the
	// stale seed would mispredict across it.  Default 0.25; negative
	// disables the fallback (edits never drop the seed).  Only consulted
	// on sessions with an editable netlist (NewEcoSession).
	EditConeBudget float64
	// EditConeResize, when set on a session with an editable netlist,
	// answers the Resize after a value-only edit batch from a
	// cone-scoped subproblem instead of the full circuit: the edit's
	// forward cone (closed under the coupling transpose) is extracted
	// against frozen boundary arrivals (dag.ExtractCone), solved with
	// the full D/W loop warm-seeded from the resident sizing, and
	// merged back.  A deterministic reconciliation re-times the full
	// graph at the merged sizes; a missed target widens the cone once
	// and then falls back to the full warm re-size.  Requires
	// TrustRegion > 0 (the cone solve is a refinement of the resident
	// answer; without a seed there is nothing to freeze against).
	// Result.Seed reports SeedCone when the cone answered.  All
	// decisions are pure functions of session history, preserving the
	// replay-determinism contract.
	EditConeResize bool
	// Tilos configures the initial-guess run.
	Tilos tilos.Options
	// OnIteration, when non-nil, receives per-iteration statistics.
	OnIteration func(IterStats)
}

// IterStats traces one D/W iteration.
type IterStats struct {
	Iter      int
	Area      float64 // area after the W-phase
	CP        float64 // critical path after the W-phase
	Objective float64 // D-phase LP objective (predicted first-order gain)
	Window    float64 // budget window η used this iteration
	Clamped   int     // W-phase vertices pinned at MaxSize
	Repaired  bool    // TILOS repair pass was needed
	// NetBuilds is the cumulative number of D-phase flow-network
	// constructions so far — 1 on every iteration when the build-once
	// reuse path is working (asserted by tests).
	NetBuilds int
	// FlowResolves is the cumulative number of D-phase solves served by
	// the incremental re-flow (mcmf ResolveChanged repairing the
	// previous optimum) rather than a from-scratch solve — every
	// iteration after the first when the delta path is working
	// (asserted by tests).
	FlowResolves int
	// FlowFallbacks is the cumulative number of D-phase ResolveChanged
	// calls the flow solver served with a full solve instead
	// (work-estimate gate or missing prior flow).
	FlowFallbacks int
	// Seed is the start-point provenance of the run this iteration
	// belongs to: SeedTilos, SeedWarm (trust-region seeded) or SeedCone
	// (an iteration of a cone subproblem).
	Seed string
}

// Start-point provenance values for Result.Seed / IterStats.Seed.
const (
	// SeedTilos marks a run started from the TILOS sizing (cold path —
	// the only start point before trust-region seeding existed).
	SeedTilos = "tilos"
	// SeedWarm marks a run started from the session's previous
	// converged sizing under the trust-region policy.
	SeedWarm = "warm"
	// SeedCone marks a Resize answered by a cone-scoped subproblem
	// solve against frozen boundary arrivals (Options.EditConeResize).
	SeedCone = "cone"
)

// Result is the final sizing.
type Result struct {
	X          []float64
	Area       float64
	CP         float64
	Iterations int
	// TilosX/TilosArea/TilosCP describe the initial TILOS solution the
	// optimizer started from (the paper's comparison baseline).
	TilosX    []float64
	TilosArea float64
	TilosCP   float64
	// TilosTime is the wall time of the cold path's TILOS seed from
	// minimum sizes (0 for warm and cone answers).
	TilosTime time.Duration
	Stats     []IterStats
	// Partial marks a run cut short by cancellation, an exhausted
	// budget or a failed flow solve: X/Area/CP describe the best sizing
	// from the last completed D/W iteration (or the TILOS seed when
	// none completed), returned alongside the error.
	Partial bool
	// Seed reports the start point the run took: SeedTilos for the
	// cold path, SeedWarm for a trust-region-seeded Session Resize,
	// SeedCone for a Resize answered by a cone subproblem.
	// For warm runs TilosX/TilosArea/TilosCP describe the (possibly
	// TILOS-repaired) seed start point rather than a minimum-size
	// TILOS solution.
	Seed string
	// SeedFallback marks a cold run that first attempted a trust-
	// region seed and abandoned it (a failed seed repair or a failed
	// seeded iteration).
	SeedFallback bool
	// FarSeed marks a trust-region seed attempt whose target lay beyond
	// the trust region of the seed's: set on its warm answer (the
	// far-jump schedule) and, with SeedFallback, on the cold answer it
	// fell back to.
	FarSeed bool
	// LibrarySeed marks a trust-region seed attempt that started from
	// the session's library of earlier converged sizings (its target
	// lay beyond the trust region of the live seed's but within that of
	// a library entry's): set on its warm answer, which ran the
	// refinement schedule, and, with SeedFallback, on the cold answer it
	// fell back to.
	LibrarySeed bool
	// ConeGates counts the sizable vertices of the cone subproblem
	// when Seed == SeedCone (0 otherwise).
	ConeGates int
	// ConeFallback marks a run that attempted a cone-scoped re-size
	// and fell back to a full-circuit path (cone too wide, extraction
	// failure, or reconciliation missing the target after widening).
	ConeFallback bool
}

func (o Options) withDefaults() Options {
	if o.Window == 0 {
		o.Window = 0.1
	}
	if o.MaxIters == 0 {
		o.MaxIters = 100
	}
	if o.EditConeBudget == 0 {
		o.EditConeBudget = 0.25
	}
	return o
}

// D/W loop stopping rule.  An iteration improves only when it cuts the
// area by at least the relative areaTol (the paper's "negligible
// improvement"); a smaller gain is kept but counts as non-improving.
// The adaptive window halves after every non-improving iteration (the
// first-order model overshot, or the step bought too little), and the
// loop stops after patience consecutive non-improving iterations or
// once the window shrinks below Window/minWindowDiv.  How the window
// moves on an improving iteration depends on the run (see dwLoop).
const (
	minWindowDiv = 32
	patience     = 5
	areaTol      = 1e-4
)

// iterScratch holds everything the D/W iteration reuses across rounds:
// the build-once D-phase constraint system with its constraint and
// objective IDs, the timing engines, the persistent W-phase and
// sensitivity solvers (all three sharing the problem's delay.CSR), and
// all per-iteration buffers — so a steady-state iterate call performs
// zero heap allocations (asserted by TestIterateSteadyStateZeroAlloc).
type iterScratch struct {
	analyzer *sta.Analyzer // full timing over aug.G (balance needs RT)
	arr      *sta.Arrivals // incremental arrivals over p.G (post-W CP)
	allV     []int         // 0..p.G.N()-1, the SetDelays index vector

	balancer *balance.Balancer // FSDU configurations over aug.G
	smp      *smp.Solver       // W-phase engine over p.CSR()
	lin      *lin.Solver       // sensitivity engine over p.CSR()

	sys    *dcs.System
	loID   []int // constraint r_i − r_dm ≤ …, per sizable vertex
	hiID   []int // constraint r_dm − r_i ≤ …, per sizable vertex
	objID  []int // objective term per sizable vertex
	edgeID []int // constraint per augmented edge (-1 for self edges)

	selfEdge []bool // per augmented edge: is it i→Dmy(i)?

	// Abort plumbing (set by Resize): the cancellation context and
	// wall-clock deadline threaded into the timing and flow layers,
	// and the cumulative flow-work budget.  Zero values disarm them.
	ctx        context.Context
	deadline   time.Time
	flowBudget int64

	dAug      []float64 // aug.G delay vector
	dBase     []float64 // p.G delay vector
	budgets   []float64
	minD      []float64
	newBudget []float64
	sens      []float64 // area sensitivities C_i
	newX      []float64 // W-phase output sizes
}

// newIterScratch builds the constraint-network topology once and
// preallocates the iteration buffers.  x0 seeds the incremental
// arrival engine.
func newIterScratch(p *dag.Problem, aug *dag.Augmented, x0 []float64) (*iterScratch, error) {
	n := p.NumSizable
	sc := &iterScratch{
		balancer:  balance.NewBalancer(aug.G),
		smp:       smp.NewSolver(p.CSR()),
		lin:       lin.NewSolver(p.CSR()),
		loID:      make([]int, n),
		hiID:      make([]int, n),
		objID:     make([]int, n),
		edgeID:    make([]int, aug.G.M()),
		selfEdge:  make([]bool, aug.G.M()),
		dAug:      make([]float64, aug.G.N()),
		dBase:     make([]float64, p.G.N()),
		budgets:   make([]float64, n),
		minD:      make([]float64, n),
		newBudget: make([]float64, n),
		sens:      make([]float64, n),
		newX:      make([]float64, n),
		allV:      make([]int, p.G.N()),
	}
	for v := range sc.allV {
		sc.allV[v] = v
	}
	var err error
	if sc.analyzer, err = sta.NewAnalyzer(aug.G); err != nil {
		return nil, err
	}
	if sc.arr, err = sta.NewArrivals(p.G, p.DelaysInto(sc.dBase, x0)); err != nil {
		return nil, err
	}

	// D-phase constraint topology (weights are rewritten every round).
	sys := dcs.NewSystem(aug.G.N())
	for _, pi := range p.PIs {
		sys.Pin(pi)
	}
	sys.Pin(p.Sink)
	for i := 0; i < n; i++ {
		dm := aug.DmyOf[i]
		sc.selfEdge[aug.SelfEdge[i]] = true
		sc.loID[i] = sys.AddConstraint(i, dm, 0) // r_i − r_dm ≤ FSDU − MINΔD
		sc.hiID[i] = sys.AddConstraint(dm, i, 0) // r_dm − r_i ≤ MAXΔD − FSDU
		sc.objID[i] = sys.AddObjective(dm, i, 0)
	}
	for _, e := range aug.G.Edges() {
		if sc.selfEdge[e.ID] {
			sc.edgeID[e.ID] = -1
			continue
		}
		sc.edgeID[e.ID] = sys.AddConstraint(e.From, e.To, 0)
	}
	sc.sys = sys
	return sc, nil
}

// retime updates the incremental arrival engine to sizes x and returns
// the critical path.
func (sc *iterScratch) retime(p *dag.Problem, x []float64) float64 {
	sc.arr.SetDelays(sc.allV, p.DelaysInto(sc.dBase, x))
	return sc.arr.CP()
}

// abortErr polls the per-call abort sources between iterations:
// ErrCanceled once the context is canceled, ErrBudgetExhausted once
// the wall-clock deadline has passed, nil otherwise.
func (sc *iterScratch) abortErr() error {
	if sc.ctx != nil && sc.ctx.Err() != nil {
		return ErrCanceled
	}
	if !sc.deadline.IsZero() && !time.Now().Before(sc.deadline) {
		return ErrBudgetExhausted
	}
	return nil
}

// Size runs MINFLOTRANSIT on problem p with critical-path target T.
func Size(p *dag.Problem, T float64, opt Options) (*Result, error) {
	return SizeCtx(context.Background(), p, T, opt)
}

// SizeCtx is Size with cancellation and budgets: the context and the
// Options.Budget deadline are polled between iterations and threaded
// into the timing and flow layers (per-augmentation granularity, see
// mcmf abort.go).  A run cut short returns the best sizing reached so
// far — the last completed D/W iteration, or the TILOS seed when none
// completed — as a Result with Partial set, together with ErrCanceled
// or ErrBudgetExhausted; a run whose flow solve failed answers the same
// way with ErrEngineFailed.  Only a run aborted before the TILOS seed
// exists returns a nil Result.
//
// SizeCtx is the one-shot form of a warm Session (session.go): it
// builds the session state and runs a single Resize.  Long-lived
// callers answering many queries on one problem keep the Session
// instead.
func SizeCtx(ctx context.Context, p *dag.Problem, T float64, opt Options) (*Result, error) {
	sess, err := NewSession(p, opt)
	if err != nil {
		return nil, err
	}
	return sess.Resize(ctx, T, Budgets{Budget: opt.Budget, FlowWorkBudget: opt.FlowWorkBudget})
}

// iterate performs one D-phase + W-phase round from sizes x with the
// given budget window, reusing the scratch's constraint network,
// persistent solvers and buffers; the round's sizes are left in
// sc.newX.  Steady-state rounds (no TILOS repair) allocate nothing.
func iterate(p *dag.Problem, aug *dag.Augmented, sc *iterScratch, x []float64, T, window float64, opt Options) (IterStats, error) {
	n := p.NumSizable
	d := aug.DelaysInto(sc.dAug, x)
	tm, err := sc.analyzer.AnalyzeCtx(sc.ctx, d)
	if err != nil {
		// A cancel landing in the timing pass surfaces as a bare context
		// error; map it onto the abort taxonomy.
		if aerr := sc.abortErr(); aerr != nil {
			return IterStats{}, aerr
		}
		return IterStats{}, err
	}
	if tm.CP > T*(1+1e-9) {
		return IterStats{}, fmt.Errorf("core: entering D-phase with infeasible CP %g > %g", tm.CP, T)
	}
	// Make the slack window the distance to the target, not the current
	// CP, so the optimizer can trade slack right up to T.
	slackToTarget := T - tm.CP

	// D-phase (1): delay-balance the augmented DAG.
	cfg, err := sc.balancer.Balance(d, tm, balance.ALAP)
	if err != nil {
		return IterStats{}, err
	}
	// The sink collects all slack to the target: path potentials may
	// grow by up to slackToTarget beyond CP. Model it by adding the
	// spare slack onto the sink's incoming FSDUs.
	for _, e := range aug.G.In(aug.Base.Sink) {
		cfg.FSDU[e] += slackToTarget
	}

	// D-phase (2): area sensitivities C_i (eq. 7).
	budgets := sc.budgets
	copy(budgets, d[:n])
	C := sc.sens
	if err := sc.lin.SensitivitiesInto(C, x, budgets, p.AreaW); err != nil {
		return IterStats{}, err
	}

	// D-phase (3)-(5): window constraints, causality, min-cost-flow
	// dual — weights and coefficients rewritten in place on the
	// build-once system.
	sys := sc.sys
	minD := sc.minD
	csr := p.CSR()
	for i := 0; i < n; i++ {
		se := aug.SelfEdge[i]
		selfF := cfg.FSDU[se]

		maxD := window * d[i]
		if maxD < selfF {
			maxD = selfF // keep r = 0 feasible
		}
		floor := csr.FloorAt(i, x, p.MaxSize)
		lo := floor - d[i] // most the budget may shrink and stay attainable
		if w := -window * d[i]; w > lo {
			lo = w
		}
		if lo > 0 {
			lo = 0
		}
		minD[i] = lo
		sys.SetWeight(sc.loID[i], selfF-lo)   // r_i − r_dm ≤ FSDU − MINΔD
		sys.SetWeight(sc.hiID[i], maxD-selfF) // r_dm − r_i ≤ MAXΔD − FSDU
		sys.SetObjectiveCoeff(sc.objID[i], C[i])
	}
	for _, e := range aug.G.Edges() {
		if id := sc.edgeID[e.ID]; id >= 0 {
			sys.SetWeight(id, cfg.FSDU[e.ID])
		}
	}
	sol, err := sys.SolveCtx(sc.ctx, dcs.Options{
		CostScale: opt.CostScale, SupplyScale: opt.SupplyScale,
		Deadline: sc.deadline, WorkBudget: sc.flowBudget,
	})
	if err != nil {
		return IterStats{}, fmt.Errorf("core: D-phase: %w", err)
	}

	// New budgets: ΔD_i = FSDU_r(i→Dmy(i)).
	newBudget := sc.newBudget
	for i := 0; i < n; i++ {
		dd := cfg.FSDU[aug.SelfEdge[i]] + sol.R[aug.DmyOf[i]] - sol.R[i]
		if dd < minD[i] {
			dd = minD[i] // numerical guard; constraints enforce this
		}
		newBudget[i] = d[i] + dd
		// Never let a budget drop to (or below) the intrinsic delay.
		if min := csr.Self[i] * (1 + 1e-9); newBudget[i] <= min {
			newBudget[i] = min + 1e-12
		}
	}

	// W-phase: minimum-area sizes for the new budgets.
	w, err := sc.smp.SolveInto(sc.newX, newBudget, p.MinSize, p.MaxSize, smp.Options{})
	if err != nil {
		return IterStats{}, fmt.Errorf("core: W-phase: %w", err)
	}
	newX := w.X

	// Re-time incrementally; repair with TILOS if MaxSize clamping broke
	// the target.
	st := IterStats{
		Objective:     sol.Objective,
		Clamped:       len(w.Clamped),
		NetBuilds:     sys.Builds(),
		FlowResolves:  sys.FlowEngineStats().Resolves,
		FlowFallbacks: sys.FlowEngineStats().FullFallbacks,
	}
	cp := sc.retime(p, newX)
	if cp > T*(1+1e-9) {
		// Repair on the resident arrival engine (retime just left it at
		// newX's delays; SizeWith's bulk reseed is a no-op rewrite) —
		// bit-identical to a fresh tilos.Size, minus the engine build.
		tr, rerr := tilos.SizeWith(p, T, newX, opt.Tilos, sc.arr, sc.dBase)
		if rerr != nil {
			return IterStats{}, fmt.Errorf("core: repair failed: %w", rerr)
		}
		copy(sc.newX, tr.X)
		cp = sc.retime(p, sc.newX)
		st.Repaired = true
	}
	st.Area = p.Area(sc.newX)
	st.CP = cp
	return st, nil
}
