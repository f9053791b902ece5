// Warm sizing sessions: the persistent-state form of SizeCtx.
//
// A Session pins everything that is expensive to build and reusable
// across optimization runs of ONE problem — the augmented DAG, the
// build-once D-phase constraint system with its cached (and
// warm-started) flow network, the persistent W-phase/sensitivity/
// timing solvers and every iteration buffer — so a long-lived caller
// (the minflod server, internal/serve) answers repeated re-sizing
// queries without paying problem setup again.  The first Resize on a
// session behaves exactly like SizeCtx (it IS SizeCtx: that function
// is now a one-shot session); later Resizes reuse the warm state, and
// their D-phase solves run through mcmf.ResolveChanged against the
// previous optimum instead of from-scratch solves.
//
// Trust-region warm seeding (Options.TrustRegion): by default every
// Resize re-seeds from TILOS, so warm state accelerates the solve but
// never changes the trajectory.  With a trust region δ configured, a
// Resize whose area weights moved at most δ relative since the previous
// clean answer skips the TILOS restart and starts the D/W loop from
// that converged sizing instead, however far its target moved.  A seed
// that misses the new (tighter) target is first repaired with TILOS
// moves *from the prior sizes* (tilos.SizeWith on the session's
// resident arrival engine).  δ on the target then picks the window
// schedule:
//
//   - A refinement (target within δ of the seed's) is all endgame: the
//     resident flow network is already priced near the new optimum, so
//     the budget window opens at 4× the relative move, floored at the
//     refinement floor 2·Window/32 (not the cold-start Options.Window),
//     holds once if the first iteration improves the area and otherwise
//     halves on every iteration; the cold schedule's regrow-on-
//     improvement rule would zigzag around the answer for many
//     iterations before settling.  It stops once the window falls below
//     that same floor, so its last D-phase ran at the window the next
//     refinement opens at, and that query's first flow repair re-prices
//     only its own change.  The window halves below the floor by
//     iteration 2 + log2(refineFloorDiv) = 6, so a refinement needs no
//     iteration cap of its own (TestRefinementIterationBound).
//   - A far jump (target beyond δ) still has real ground to cover: the
//     window opens at Options.Window, holds on an improving iteration
//     and halves on an overshoot — the cold rule without the regrow —
//     under the cold path's own MaxIters cap.  Starting from the
//     converged sizing instead of minimum sizes saves the TILOS
//     restart and most of the walk back to the optimum.
//
// The third start point is the session's library of earlier clean
// converged sizings (at most libCap of them): whenever a clean answer's
// target leaves the trust region of the live seed's, the live seed is
// filed in the library, in a free slot or else in place of the least
// recently used entry.  A query beyond δ of the live seed but within δ
// of a library entry starts from the nearest such entry instead, on
// the refinement schedule: that entry becomes the live seed and the
// live seed takes its slot.  Every other query takes the paths above.
// Any accepted weight or edit batch empties the library (its sizings
// were converged for the old costs or netlist), and a rebuilt session
// starts with an empty one.
//
// Weight edits beyond δ and a seed whose TILOS repair cannot reach the
// target fall back to the cold TILOS path; a seeded iteration that
// fails answers partial like a cold one (ErrIterationFailed).
// Result.Seed records which path answered, Result.FarSeed whether the
// seed attempt was a far jump and Result.LibrarySeed whether it started
// from a library entry.
//
// Determinism contract: a session's answers are a deterministic
// function of the query sequence served since its last cold build — a
// serial twin session replaying the same sequence answers every query
// bit-identically (TestSessionReplayDeterminism; the server's soak
// test leans on this per session generation).  Trust-region seeding
// deliberately renegotiates the stronger PR-7 property (identical
// no-matter-the-history warm answers) down to exactly this
// "deterministic given session history" contract: the seeding
// decision, the seed point, the library's entries and their eviction
// order (a counter of clean answers, not a clock) are all pure
// functions of the served sequence, never of wall time.  Warm answers
// are NOT bitwise equal to one-shot cold answers of the same query:
// the incremental re-flow recovers an equally optimal but different
// dual solution than a fresh solve (the D-phase LP is degenerate), and
// a seeded resize additionally starts from a different (equally
// feasible) point, so the trajectory drifts.  Every answer is feasible
// and optimal to the same tolerances either way — the tests bound the
// warm-vs-cold area drift at 1e-3 relative with seeding off and at
// 2e-2 with seeding on.
//
// A Session is single-client: calls must be externally serialized
// (the server runs one worker goroutine per session).  Distinct
// Sessions share nothing mutable and run concurrently.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"minflo/internal/dag"
	"minflo/internal/mcmf"
	"minflo/internal/tilos"
)

// Budgets caps one Resize call.  Zero values disarm a cap.  Unlike
// Options.Budget/FlowWorkBudget — which bound a whole SizeCtx run —
// these are per-call: each Resize gets its own wall-clock window and
// its own flow-work allowance on top of the work already spent.
type Budgets struct {
	// Budget bounds the wall clock of this call.
	Budget time.Duration
	// FlowWorkBudget caps the D-phase flow work (mcmf poll operations)
	// this call may add.
	FlowWorkBudget int64
}

// Session holds the warm optimizer state of one sizing problem.
type Session struct {
	p   *dag.Problem
	aug *dag.Augmented
	opt Options
	sc  *iterScratch

	closed bool

	// Trust-region warm-seed state (Options.TrustRegion): the last
	// clean converged sizing and the target/weight bookkeeping that
	// decides whether the next Resize may start from it.  seedX is
	// preallocated at build time so MemoryBytes stays query-stable.
	seedX        []float64
	seedT        float64
	seedValid    bool
	seedWPerturb float64 // max relative area-weight change since seedX

	// Library of earlier clean converged sizings (see the package
	// header): lib holds the live entries, libClock stamps inserts and
	// hits for least-recently-used eviction, and libStale marks a live
	// seed converged before the latest accepted weight or edit batch,
	// which must not be filed.
	lib      []libEntry
	libClock uint64
	libStale bool

	// ECO state (NewEcoSession only): the editable netlist wrapper
	// (eco.go).
	eco *dag.Eco
}

// libCap bounds the session's library of converged sizings
// (EXPERIMENTS.md, "A library of converged sizings", measures 8, 16
// and 32).
const libCap = 16

// libEntry is one library sizing: a clean converged answer x at
// target T, stamped with the library clock of its last insert or hit.
type libEntry struct {
	x     []float64
	T     float64
	stamp uint64
}

// NewSession builds the warm state for problem p: augmented DAG,
// constraint-system topology, solvers and buffers.  The problem is
// retained by reference — the caller must not mutate it except
// through the Session (SetAreaWeight).
func NewSession(p *dag.Problem, opt Options) (*Session, error) {
	opt = opt.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	aug := p.Augment()
	sc, err := newIterScratch(p, aug, p.InitialSizes())
	if err != nil {
		return nil, err
	}
	return &Session{p: p, aug: aug, opt: opt, sc: sc, seedX: make([]float64, p.NumSizable)}, nil
}

// Close marks the session closed: later Resize and ApplyEdits calls
// fail.  Idempotent.
func (s *Session) Close() { s.closed = true }

// NumSizable returns the number of sizable vertices of the problem.
func (s *Session) NumSizable() int { return s.p.NumSizable }

// AreaWeight returns the area weight of sizable vertex i.
func (s *Session) AreaWeight(i int) float64 { return s.p.AreaW[i] }

// SetAreaWeight updates the area weight (the objective cost) of
// sizable vertex i in place — the warm "what-if cost change" path:
// the next Resize prices the new weight through the same warm
// constraint system, no rebuild.  The change is sticky; callers
// wanting a transient what-if restore the old weight afterwards.
// Weight edits accumulate against the trust region: once the largest
// relative change since the last clean answer exceeds
// Options.TrustRegion, the next Resize re-seeds from TILOS.  Any
// accepted edit empties the library of converged sizings.
func (s *Session) SetAreaWeight(i int, w float64) error {
	return s.SetAreaWeights([]int{i}, []float64{w})
}

// SetAreaWeights applies a batch of area-weight edits atomically: the
// whole batch is validated first (the SetAreaWeight range and
// finite-positive checks) and applied only when every entry passes, so
// a rejected batch leaves the session bit-identical to never having
// received it — no weights written, no trust-region perturbation
// recorded.  Duplicate gates collapse to the last entry (last-wins,
// matching the server's canonical-query semantics), and the
// perturbation ledger sees only the surviving per-gate values —
// intermediate duplicates never widen the trust region.  An accepted
// batch, even one that writes the weights already in place, empties
// the library of converged sizings.
func (s *Session) SetAreaWeights(gates []int, weights []float64) error {
	if len(gates) != len(weights) {
		return fmt.Errorf("core: SetAreaWeights: %d gates but %d weights", len(gates), len(weights))
	}
	for k := range gates {
		i, w := gates[k], weights[k]
		if i < 0 || i >= s.p.NumSizable {
			return fmt.Errorf("core: SetAreaWeight(%d) out of range [0,%d)", i, s.p.NumSizable)
		}
		if !(w > 0) || math.IsInf(w, 0) {
			return fmt.Errorf("core: SetAreaWeight(%d, %g): weight must be finite and positive", i, w)
		}
	}
	for k := range gates {
		last := true
		for j := k + 1; j < len(gates); j++ {
			if gates[j] == gates[k] {
				last = false
				break
			}
		}
		if !last {
			continue // a later entry wins for this gate
		}
		i, w := gates[k], weights[k]
		old := s.p.AreaW[i]
		s.p.AreaW[i] = w
		if rel := math.Abs(w-old) / old; rel > s.seedWPerturb {
			s.seedWPerturb = rel
		}
	}
	s.clearLibrary()
	return nil
}

// clearLibrary empties the library of converged sizings and marks the
// live seed unfit to file: both were converged for the costs or
// netlist an accepted batch just changed.  The entries' buffers go
// with them, so MemoryBytes (which counts the live entries) stays the
// resident size.
func (s *Session) clearLibrary() {
	for i := range s.lib {
		s.lib[i].x = nil
	}
	s.lib = s.lib[:0]
	s.libStale = true
}

// libNearest returns the library entry nearest target T, relative to
// the entry's target, among those within the trust region of it, and
// -1 when none is: the same test farJump applies to the live seed.
// Ties go to the lower index.
func (s *Session) libNearest(T float64) int {
	best, bestRel := -1, 0.0
	for i := range s.lib {
		e := &s.lib[i]
		rel := math.Abs(T-e.T) / e.T
		if rel > s.opt.TrustRegion {
			continue
		}
		if best < 0 || rel < bestRel {
			best, bestRel = i, rel
		}
	}
	return best
}

// libFile moves the live seed into the library: into a free slot, or
// else in place of the least recently used entry.  The seed's buffer is
// swapped, not copied, so s.seedX comes back holding the evicted
// entry's sizing (or a fresh buffer for a new slot) for the caller to
// overwrite; once the library is full, filing allocates nothing.
func (s *Session) libFile() {
	k := 0
	if len(s.lib) < libCap {
		if s.lib == nil {
			s.lib = make([]libEntry, 0, libCap)
		}
		s.lib = append(s.lib, libEntry{x: make([]float64, len(s.seedX))})
		k = len(s.lib) - 1
	} else {
		for i := range s.lib {
			if s.lib[i].stamp < s.lib[k].stamp {
				k = i
			}
		}
	}
	e := &s.lib[k]
	e.x, s.seedX = s.seedX, e.x
	e.T = s.seedT
	s.libClock++
	e.stamp = s.libClock
}

// libTake makes library entry i the live seed for a query near its
// target and files the live seed in its slot, by swapping buffers.
func (s *Session) libTake(i int) {
	e := &s.lib[i]
	e.x, s.seedX = s.seedX, e.x
	e.T, s.seedT = s.seedT, e.T
	s.libClock++
	e.stamp = s.libClock
}

// FlowResolves reports how many D-phase solves the session served
// incrementally (mcmf ResolveChanged) over its lifetime — the
// observable warm-path counter the serving tests assert on.
func (s *Session) FlowResolves() int { return s.sc.sys.FlowEngineStats().Resolves }

// MemoryBytes estimates the resident footprint of the warm state in
// bytes: the problem's coupling CSR and coefficient arena, both DAGs,
// the timing/balancing/W-phase solvers, the D-phase constraint system
// with its cached flow network and search scratch, and the iteration
// buffers.  It is an estimate from element counts (within 2× of the
// live-heap growth of a session built and queried warm on the
// benchmark circuits, see TestSessionMemoryAccounting), deterministic
// for a given problem, and cheap — the server's watermark eviction
// only needs relative, stable numbers.
func (s *Session) MemoryBytes() int64 {
	const word = 8
	n := int64(s.p.G.N())
	m := int64(s.p.G.M())
	an := int64(s.aug.G.N())
	am := int64(s.aug.G.M())
	var nnz int64
	for i := range s.p.Coeffs {
		nnz += int64(len(s.p.Coeffs[i].Terms))
	}
	cons := int64(s.sc.sys.NumConstraints())
	objs := int64(s.sc.sys.NumObjectives())
	arcs := cons + 2*int64(len(s.p.PIs)+1)

	var b int64
	b += n*10*word + nnz*3*word // coupling CSR: rows, transpose, block/level maps
	b += n*4*word + nnz*2*word  // coefficient arena (Self/Const + 12B terms)
	b += (n+m)*3*word + (an+am)*3*word
	b += an*8*word + am*2*word    // analyzer + balancer
	b += n*6*word + m*2*word      // incremental arrivals
	b += (cons + objs) * 4 * word // dcs constraint/objective tables + cost diff state
	// Flow network, per public arc: two 24-byte residual arcs (grouped
	// by tail), a 4-byte ID→position entry, the configured capacity and
	// the attempt snapshot's two residual capacities.  dcs reserves the
	// arrays before building, so they carry no append slack.
	b += arcs * 76
	b += an * 14 * word // iteration buffers, W-phase/sensitivity scratch
	// The flow network's search scratch (its nodes: the variables and
	// ground).
	b += mcmf.SearchScratchBytes(s.sc.sys.NumVars() + 1)
	// Trust-region warm-seed state: the retained previous sizing vector
	// plus the target/perturbation bookkeeping (preallocated at build
	// time, so the estimate is identical before and after the first
	// query).
	b += int64(len(s.seedX))*word + 8*word
	// The library's live entries: a sizing vector plus target and stamp
	// each (the seed's length: every entry is a sizing of this problem).
	b += int64(len(s.lib)) * (int64(len(s.seedX)) + 5) * word
	if s.eco != nil {
		// Editable-netlist state: the retained circuit (name header,
		// input refs, size per gate) and the extra-load vector.
		var pins int64
		for gi := range s.eco.C.Gates {
			pins += int64(len(s.eco.C.Gates[gi].Ins))
		}
		b += int64(len(s.eco.C.Gates))*6*word + pins*2*word
		b += int64(len(s.eco.Extra)) * word
	}
	return b
}

// errSeedRejected reports (internally) that a trust-region-seeded
// attempt was abandoned — its TILOS repair could not reach the target —
// and the caller should run the cold path.
var errSeedRejected = errors.New("core: trust-region seed rejected")

// Resize runs the full MINFLOTRANSIT optimization to critical-path
// target T on the session's warm state, under ctx and the per-call
// budgets.  The contract is SizeCtx's: a run cut short returns the
// best-so-far sizing as a partial Result together with ErrCanceled /
// ErrBudgetExhausted; a failed flow solve returns the best-so-far
// partial Result with ErrEngineFailed (callers holding warm state
// should treat the session as suspect and rebuild — the server
// quarantines on it); an abort or failure before any sizing exists
// returns (nil, error).
//
// Without Options.TrustRegion the answer is bit-identical to a cold
// run of the same query on a fresh session.  With a trust region
// configured, a query whose area weights stayed within it starts from
// the previous clean answer, or from a library entry near its target,
// instead of a TILOS restart (Result.Seed and Result.LibrarySeed report
// which), and answers are deterministic given the session's query
// history — a twin session replaying the same sequence answers
// bit-identically.
func (s *Session) Resize(ctx context.Context, T float64, bud Budgets) (*Result, error) {
	if s.closed {
		return nil, errors.New("core: Resize on closed Session")
	}
	opt := s.opt
	sc := s.sc

	// Arm the per-call abort sources (polled by sc.abortErr and threaded
	// into the timing and flow layers).  The flow-work budget is spent
	// from the solver's cumulative counter, so a per-call allowance sits
	// on top of whatever earlier Resizes already used (including a
	// seeded attempt this same call later abandons).
	sc.ctx = ctx
	sc.deadline = time.Time{}
	if bud.Budget > 0 {
		sc.deadline = time.Now().Add(bud.Budget)
	}
	sc.flowBudget = 0
	if bud.FlowWorkBudget > 0 {
		sc.flowBudget = sc.sys.FlowWorkDone() + bud.FlowWorkBudget
	}

	// Trust-region policy: seed from the previous clean answer when no
	// weight edit since exceeded δ; the target's move only picks the
	// seeded schedule (refinement or far jump, see resizeSeeded).
	// Every input here is session history — never wall time — so a
	// twin replaying the sequence makes the same choice.
	fellBack, far, lib := false, false, false
	if opt.TrustRegion > 0 && s.seedValid && s.seedT > 0 &&
		s.seedWPerturb <= opt.TrustRegion {
		far = s.farJump(T)
		if far {
			// A far jump back into a region the session has solved starts
			// from that region's library entry, as a refinement.
			if i := s.libNearest(T); i >= 0 {
				s.libTake(i)
				far, lib = false, true
			}
		}
		res, err := s.resizeSeeded(T)
		if !errors.Is(err, errSeedRejected) {
			if res != nil {
				res.LibrarySeed = lib
			}
			return s.record(T, res, err)
		}
		fellBack = true
	}
	res, err := s.resizeCold(T)
	if res != nil {
		res.SeedFallback = fellBack
		res.FarSeed = fellBack && far
		res.LibrarySeed = fellBack && lib
	}
	return s.record(T, res, err)
}

// farJump reports whether target T lies beyond the trust region of the
// seed's target: a seeded Resize to it runs the far-jump schedule.
func (s *Session) farJump(T float64) bool {
	return math.Abs(T-s.seedT) > s.opt.TrustRegion*s.seedT
}

// record finishes a Resize: a clean answer becomes the next trust-region
// seed.  When the answer's target leaves the trust region of the
// seed's, the seed is filed in the library first (unless an accepted
// batch since made it stale).
func (s *Session) record(T float64, res *Result, err error) (*Result, error) {
	if err != nil || res == nil {
		return res, err
	}
	if s.opt.TrustRegion > 0 && s.seedValid && !s.libStale && s.farJump(T) {
		s.libFile()
	}
	copy(s.seedX, res.X)
	s.seedT = T
	s.seedValid = true
	s.seedWPerturb = 0
	s.libStale = false
	return res, nil
}

// resizeSeeded is the trust-region warm path: start the D/W loop from
// the previous converged sizing.  A seed that misses the (tighter) new
// target is first repaired with TILOS moves from the prior sizes on
// the session's resident arrival engine — still far cheaper than the
// minimum-size restart.  Returns errSeedRejected when the cold path
// should take over.
func (s *Session) resizeSeeded(T float64) (*Result, error) {
	p, sc, opt := s.p, s.sc, s.opt
	res := &Result{Seed: SeedWarm, FarSeed: s.farJump(T)}
	x := append([]float64(nil), s.seedX...)
	cp := sc.retime(p, x)
	if cp > T {
		tr, err := tilos.SizeWith(p, T, x, opt.Tilos, sc.arr, sc.dBase)
		if err != nil {
			// Repair could not reach the target from here; let the cold
			// path (minimum-size TILOS restart) decide feasibility.
			return nil, errSeedRejected
		}
		x = tr.X
		cp = tr.CP
	}
	res.TilosX = append([]float64(nil), x...)
	res.TilosArea = p.Area(x)
	res.TilosCP = cp
	if aerr := sc.abortErr(); aerr != nil {
		res.X = append([]float64(nil), x...)
		res.Area = res.TilosArea
		res.CP = cp
		res.Partial = true
		return res, aerr
	}
	if res.FarSeed {
		// A far jump still has real ground to cover: the cold window and
		// iteration cap (dwLoop holds the window on success).
		return s.dwLoop(res, x, T, opt.Window)
	}
	// A refinement sits within the trust region of the new optimum, so the
	// D/W loop's budget window opens at 4× the actual move, floored at
	// the refinement floor Window/refineFloorDiv, instead of the full
	// cold-start Window — starting wide from a near-optimal point just
	// burns iterations walking the window back down.  Twice that opening
	// mostly wasted its first step: on serve_refine-shaped walks the step
	// failed to improve the area in 92% of c1908's refinements and 60% of
	// mult8's.  Both inputs are session history, so twin replays compute
	// the same window.
	rel := math.Abs(T-s.seedT) / s.seedT
	if s.seedWPerturb > rel {
		rel = s.seedWPerturb
	}
	w0 := 4 * rel
	if floor := opt.Window / refineFloorDiv; w0 < floor {
		w0 = floor
	}
	if w0 > opt.Window {
		w0 = opt.Window
	}
	return s.dwLoop(res, x, T, w0)
}

// resizeCold is the PR-7 path: TILOS from minimum sizes, then the D/W
// loop — byte-for-byte the trajectory a fresh session would produce.
func (s *Session) resizeCold(T float64) (*Result, error) {
	p, sc, opt := s.p, s.sc, s.opt
	t0 := time.Now()
	tr, err := tilos.SizeWith(p, T, nil, opt.Tilos, sc.arr, sc.dBase)
	tilosTime := time.Since(t0)
	if err != nil {
		if errors.Is(err, tilos.ErrInfeasible) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	x := tr.X
	res := &Result{Seed: SeedTilos, TilosX: append([]float64(nil), x...), TilosArea: tr.Area, TilosCP: tr.CP, TilosTime: tilosTime}

	// An abort between the seed and the first iteration still has a
	// usable answer: the TILOS sizing itself.
	if aerr := sc.abortErr(); aerr != nil {
		res.X = append([]float64(nil), x...)
		res.Area = p.Area(x)
		res.CP = res.TilosCP
		res.Partial = true
		return res, aerr
	}
	return s.dwLoop(res, x, T, opt.Window)
}

// dwLoop alternates D-phase and W-phase from start point x until the
// area improvement is negligible or MaxIters is reached.  The budget
// window starts at window0 (Options.Window for cold runs and far
// jumps; scaled to the target move for refinements) and adapts like a
// trust region: halve after an iteration whose first-order prediction
// overshot (area got worse); on success a cold run relaxes it back, a
// far jump holds it and a refinement halves it, except that a gain on
// its first iteration holds the window once.  Cold runs and far jumps
// stop below Window/minWindowDiv; a refinement stops below the floor
// it opens at, Window/refineFloorDiv, which its window falls under by
// iteration 2 + log2(refineFloorDiv).
// iterate leaves the round's sizes in sc.newX; x and bestX are stable
// buffers owned by this loop.
//
// A failed iteration, seeded or cold, answers the best-so-far sizing
// as a partial Result with a typed error (see answersPartial).
func (s *Session) dwLoop(res *Result, x []float64, T float64, window0 float64) (*Result, error) {
	p, sc, opt := s.p, s.sc, s.opt
	seeded := res.Seed == SeedWarm
	refine := seeded && !res.FarSeed
	bestX := append([]float64(nil), x...)
	bestArea := p.Area(x)
	noImprove := 0
	window := window0
	minWindow := opt.Window / minWindowDiv
	if refine {
		// A refinement stops below the floor it opens at: the step under
		// it is the one the next refinement repeats at the floor.
		minWindow = opt.Window / refineFloorDiv
	}

	// finishPartial answers an abort or failure with the best-so-far
	// sizing.
	finishPartial := func(aerr error) (*Result, error) {
		res.X = bestX
		res.Area = bestArea
		res.CP = sc.retime(p, bestX)
		res.Partial = true
		return res, aerr
	}

	x = append([]float64(nil), x...)
	for it := 1; it <= opt.MaxIters; it++ {
		if aerr := sc.abortErr(); aerr != nil {
			return finishPartial(aerr)
		}
		st, err := iterate(p, s.aug, sc, x, T, window, opt)
		if err != nil {
			// Cut short mid-iteration (canceled context or an exhausted
			// wall-clock/flow-work budget surfacing from the timing or
			// flow layers), a failed flow solve (mcmf retries nothing),
			// or any other failed step, typed ErrIterationFailed: answer
			// with the last completed iteration's best and the typed
			// error.  After either failure the warm state is suspect,
			// so session owners quarantine and rebuild.
			if !answersPartial(err) {
				err = fmt.Errorf("%w: %w", ErrIterationFailed, err)
			}
			return finishPartial(err)
		}
		st.Iter = it
		st.Window = window
		st.Seed = res.Seed
		res.Stats = append(res.Stats, st)
		res.Iterations = it
		if opt.OnIteration != nil {
			opt.OnIteration(st)
		}
		// Stop when the area improvement is negligible.
		if st.Area < bestArea*(1-areaTol) {
			bestArea = st.Area
			copy(bestX, sc.newX)
			copy(x, sc.newX)
			noImprove = 0
			if refine {
				// Endgame schedule: a refinement starts near the optimum,
				// so the window decays monotonically.  Re-inflating it on
				// success (the cold rule below) just buys the next
				// overshoot and a halve-back — a zigzag that stretches a
				// refinement to cold-run iteration counts for sub-0.1%
				// area gains.  A gain on the first step is the one
				// exception: the narrow opening fit the move, so the
				// window holds once before it decays.
				if it > 1 {
					window /= 2
				}
			} else if !seeded && window < opt.Window {
				window = math.Min(opt.Window, window*1.5)
			}
		} else {
			if st.Area < bestArea {
				bestArea = st.Area
				copy(bestX, sc.newX)
				copy(x, sc.newX)
			} else {
				// Overshoot: back to the best point with a tighter window.
				copy(x, bestX)
			}
			window /= 2
			noImprove++
		}
		// Refinements also decay the window on an improving iteration
		// (no other run shrinks it there), so every run checks the floor.
		if noImprove >= patience || window < minWindow {
			break
		}
	}

	res.X = bestX
	res.Area = bestArea
	res.CP = sc.retime(p, bestX)
	return res, nil
}
