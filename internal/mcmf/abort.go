// Cancellation, budgets and graceful engine degradation.
//
// Every engine inner loop polls Solver.pollAbort at its natural
// operation granularity — one shortest-path augmentation of the
// per-source loop, one primal–dual phase search and one path routed
// by its blocking flow (ssp; a phase search on a tree can cover the
// whole network), one Bellman–Ford round, one discharge
// (costscaling).  The poll is a single abort
// funnel with four sources:
//
//   - a context.Context installed with SetContext (→ ErrCanceled),
//   - a wall-clock deadline installed with SetDeadline
//     (→ ErrBudgetExhausted),
//   - a cumulative flow-work budget installed with SetWorkBudget
//     (→ ErrBudgetExhausted),
//   - a test/fault poll hook installed with SetPollHook (returns
//     whatever the hook returns; internal/fault injects through it).
//
// When none of these is armed the poll is a single predictable branch
// on a cached bool — measured in BenchmarkDPhaseResolve (the warm
// paths stay allocation-free and within the CI benchmark gates).
//
// # Abort safety
//
// Solves mutate residual capacities and potentials in place, so an
// abort mid-solve would otherwise leave the Solver in a state whose
// next solve — while still correct — could follow a different
// (equally optimal) trajectory than a never-aborted twin.  To keep
// cancellation invisible, the engine wrapper snapshots the mutable
// solve state (residual capacities, potentials, the
// solved/repairable/flowDirty flags, and the search's heap back-off)
// before an attempt whenever an abort source is armed, and restores it
// when the attempt aborts.  A subsequent solve
// on the cancelled Solver is therefore bit-identical to one on a twin
// that was never cancelled (TestConformanceCancelAtPollPoints).  The
// snapshot buffers are reused across attempts, so the armed warm path
// stays allocation-free after the first solve.
//
// # Engine degradation
//
// Engine attempts additionally run under panic recovery: a panicking
// engine yields a typed ErrEngineFailed instead of crashing the
// process.  With SetEngineFallback(true) (internal/dcs enables this
// for the sizing pipeline) a failure-class error — a panic, a scaling
// engine's ErrPriceRange refusal, or a fault-injected error — restores
// the pre-attempt state and re-runs the attempt once: a failing
// costscaling (or wrapper) engine permanently degrades the Solver to
// "ssp", and a failing "ssp" permanently pins its search to the heap,
// leaving the bucket queue out.  Either rescue is recorded
// (EngineFailures/LastEngineFailure; surfaced per-iteration in
// core.IterStats.FlowEngineFailures).  Abort-class errors (canceled,
// budget exhausted) and semantic errors (infeasible, unbalanced,
// negative cycle) never trigger fallback: retrying cannot change them.
package mcmf

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Abort and degradation errors.  ErrCanceled and ErrBudgetExhausted
// leave the Solver reusable with its pre-solve state restored;
// ErrEngineFailed wraps the panic value of a failed engine.
var (
	// ErrCanceled reports that the context installed with SetContext
	// was canceled at a poll point.
	ErrCanceled = errors.New("mcmf: solve canceled")
	// ErrBudgetExhausted reports that the wall-clock deadline
	// (SetDeadline) or the cumulative work budget (SetWorkBudget)
	// expired at a poll point.
	ErrBudgetExhausted = errors.New("mcmf: solve budget exhausted")
	// ErrEngineFailed wraps a panic recovered from an engine's
	// Solve/Resolve.
	ErrEngineFailed = errors.New("mcmf: engine failed")
)

// SetContext installs a cancellation context checked at every poll
// point; a canceled context aborts the running solve with ErrCanceled
// and restores the pre-solve state.  nil (or a context that can never
// be canceled, like context.Background) disarms the check.  The
// context persists across solves until replaced.
func (s *Solver) SetContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // uncancelable: keep the unarmed fast path
	}
	s.ctx = ctx
	s.reArm()
}

// SetDeadline installs a wall-clock deadline sampled at poll points;
// solves running past it abort with ErrBudgetExhausted.  The zero
// time disarms it.
func (s *Solver) SetDeadline(t time.Time) {
	s.deadline = t
	s.reArm()
}

// SetWorkBudget caps the cumulative abort-poll operations (roughly:
// augmentations, phases, discharges and Bellman–Ford rounds) this Solver may
// spend over its remaining lifetime; solves that exceed it abort with
// ErrBudgetExhausted.  The budget is cumulative across solves — it
// bounds the total flow work of a D/W iteration sequence, not one
// solve.  0 disarms it.
func (s *Solver) SetWorkBudget(n int64) {
	if n < 0 {
		n = 0
	}
	s.workBudget = n
	s.reArm()
}

// WorkDone returns the cumulative poll operations counted while an
// abort source was armed (the currency SetWorkBudget is spent in).
func (s *Solver) WorkDone() int64 { return s.workDone }

// SetPollHook installs a hook called at every poll point; a non-nil
// return aborts the running solve with that error.  One hook owner at
// a time — internal/fault and the cancellation tests use it for
// deterministic mid-solve injection.  nil disarms it.
func (s *Solver) SetPollHook(h func() error) {
	s.pollHook = h
	s.reArm()
}

// SetEngineFallback enables graceful degradation: when the active
// engine fails (panic, price-range refusal, injected fault), the
// pre-attempt state is restored and the solve re-runs on "ssp", which
// stays installed — or, when "ssp" itself failed, on ssp with its
// search pinned to the heap for the rest of the Solver's life.
// Disabled by default so direct engine tests observe raw engine
// errors; internal/dcs enables it for the sizing pipeline.
func (s *Solver) SetEngineFallback(on bool) { s.fallbackOn = on }

// EngineFailures returns how many times an engine failed and the
// Solver rescued the attempt (see SetEngineFallback).
func (s *Solver) EngineFailures() int { return s.engineFailures }

// LastEngineFailure returns the wrapped error of the most recent
// engine failure that triggered degradation, or nil.
func (s *Solver) LastEngineFailure() error { return s.lastFailure }

// reArm recaches the armed flag after any abort-source change, keeping
// pollAbort's hot path a single branch.
func (s *Solver) reArm() {
	s.armed = s.ctx != nil || s.pollHook != nil || s.workBudget > 0 ||
		!s.deadline.IsZero()
}

// pollAbort is the abort funnel every engine inner loop polls.  It
// returns nil to continue, or the abort error to surface.  Unarmed it
// is one branch; armed it runs the hook and budget checks every call
// and samples the clock every 32nd call.
func (s *Solver) pollAbort() error {
	if !s.armed {
		return nil
	}
	return s.pollAbortArmed()
}

func (s *Solver) pollAbortArmed() error {
	if s.pollHook != nil {
		if err := s.pollHook(); err != nil {
			return err
		}
	}
	s.workDone++
	if s.workBudget > 0 && s.workDone > s.workBudget {
		return ErrBudgetExhausted
	}
	if s.ctx != nil && s.ctx.Err() != nil {
		return ErrCanceled
	}
	s.pollTick++
	if s.pollTick&31 == 0 && !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return ErrBudgetExhausted
	}
	return nil
}

// isAbortErr classifies the errors that abort a solve on behalf of the
// caller: restoring state is required, retrying on another engine is
// pointless.
func isAbortErr(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrBudgetExhausted)
}

// isSemanticErr classifies the errors that describe the instance, not
// the engine: every engine would return the same verdict, so fallback
// never helps and the post-error state keeps its legacy semantics.
func isSemanticErr(err error) bool {
	return errors.Is(err, ErrInfeasible) || errors.Is(err, ErrUnbalanced) ||
		errors.Is(err, ErrNegativeCycle)
}

// attemptState snapshots the solve-mutable Solver state so an aborted
// or failed engine attempt can be rolled back exactly.  Costs,
// configured capacities, supplies and the routed snapshot are never
// mutated mid-solve and need no copy.
type attemptState struct {
	caps                          []int64 // residual capacity per residual arc
	pot                           []int64
	skip, skipLen                 int // the search's heap back-off
	solved, repairable, flowDirty bool
	valid                         bool
}

// beginAttempt snapshots the pre-attempt state into reused buffers
// (allocation-free once warm).
func (s *Solver) beginAttempt() {
	a := &s.att
	if cap(a.caps) < len(s.arcs) {
		a.caps = make([]int64, len(s.arcs))
	}
	a.caps = a.caps[:len(s.arcs)]
	for i := range s.arcs {
		a.caps[i] = s.arcs[i].cap
	}
	if cap(a.pot) < len(s.pot) {
		a.pot = make([]int64, len(s.pot))
	}
	a.pot = a.pot[:len(s.pot)]
	copy(a.pot, s.pot)
	a.skip, a.skipLen = s.ss.skip, s.ss.skipLen
	a.solved, a.repairable, a.flowDirty = s.solved, s.repairable, s.flowDirty
	a.valid = true
}

// restoreAttempt rolls the Solver back to the last beginAttempt
// snapshot.
func (s *Solver) restoreAttempt() {
	a := &s.att
	if !a.valid {
		return
	}
	for i := range a.caps {
		s.arcs[i].cap = a.caps[i]
	}
	copy(s.pot, a.pot)
	for i := len(a.pot); i < len(s.pot); i++ {
		s.pot[i] = 0
	}
	s.ss.skip, s.ss.skipLen = a.skip, a.skipLen
	s.solved, s.repairable, s.flowDirty = a.solved, a.repairable, a.flowDirty
}

// runEngine is the guarded engine dispatch behind Solver.Solve and
// Solver.ResolveChanged: snapshot when an abort source or fallback is
// in play, run the attempt under panic recovery, classify the error,
// and rescue an engine failure when enabled — degrading to ssp, or
// pinning a failed ssp's search to the heap.
func (s *Solver) runEngine(changed []int32, resolve bool) (float64, error) {
	e := s.engine()
	guard := s.armed || s.fallbackOn
	if guard {
		s.beginAttempt()
	}
	cost, err := s.attempt(e, changed, resolve)
	if err == nil || !guard {
		return cost, err
	}
	if isAbortErr(err) {
		s.restoreAttempt()
		return 0, err
	}
	if isSemanticErr(err) {
		return 0, err
	}
	// Failure class: panic (ErrEngineFailed), scaling price-range
	// refusal, or an injected fault.
	s.restoreAttempt()
	if !s.fallbackOn {
		return 0, err
	}
	if e.Name() != "ssp" {
		if serr := s.SetEngine("ssp"); serr != nil {
			return 0, err
		}
		s.lastFailure = fmt.Errorf("mcmf: engine %q failed, degraded to ssp: %w", e.Name(), err)
	} else if !s.ss.heapOnly {
		s.ss.heapOnly = true
		s.lastFailure = fmt.Errorf("mcmf: engine \"ssp\" failed, re-ran on the heap search: %w", err)
	} else {
		return 0, err // already on the heap: nothing left to fall back to
	}
	s.engineFailures++
	cost, err = s.attempt(s.engine(), changed, resolve)
	if err != nil && isAbortErr(err) {
		s.restoreAttempt() // snapshot still holds the pre-attempt state
	}
	return cost, err
}

// attempt runs one engine call under panic recovery, converting a
// panicking engine into a typed ErrEngineFailed instead of crashing
// the process.
func (s *Solver) attempt(e Engine, changed []int32, resolve bool) (cost float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			cost = 0
			err = fmt.Errorf("%w: engine %q panicked: %v", ErrEngineFailed, e.Name(), r)
		}
	}()
	if resolve {
		return e.Resolve(s, changed)
	}
	return e.Solve(s)
}
