// Cancellation, budgets, fault hooks and failed attempts.
//
// Every inner loop polls Solver.pollAbort at its natural operation
// granularity — one shortest-path augmentation of the per-source loop,
// one primal–dual phase search and one path routed by its blocking
// flow (a phase search on a tree can cover the whole network), one
// Bellman–Ford round, one discharge of the cost-scaling oracle.  The
// poll is a single abort funnel with four sources:
//
//   - a context.Context installed with SetContext (→ ErrCanceled),
//   - a wall-clock deadline installed with SetDeadline
//     (→ ErrBudgetExhausted),
//   - a cumulative flow-work budget installed with SetWorkBudget
//     (→ ErrBudgetExhausted),
//   - a poll hook the installed context carries (WithPollHook; returns
//     whatever the hook returns — internal/fault injects through it).
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
// cancellation invisible, runEngine snapshots the mutable solve state
// (residual capacities, potentials and the solved/repairable/flowDirty
// flags) before an attempt whenever an abort source is armed, and
// restores it when the attempt aborts or fails.  A
// subsequent solve on the cancelled Solver is therefore bit-identical
// to one on a twin that was never cancelled
// (TestConformanceCancelAtPollPoints).  The snapshot buffers are
// reused across attempts, so the armed warm path stays allocation-free
// after the first solve.
//
// # Failed attempts
//
// Attempts run under panic recovery: a panic yields a typed
// ErrEngineFailed instead of crashing the process, and it is returned
// as is — there is no second attempt.  Callers own the recovery
// (internal/core answers with its best-so-far sizing; minflod
// quarantines the session and rebuilds it from its ledger).  With an
// abort source armed, a failure-class error — a panic or a
// hook-injected error — restores the snapshot like an abort, so the
// next solve is bit-identical to one on an undisturbed twin.
//
// An attempt that fails unarmed has no snapshot to restore: its
// residuals may hold part of a routing and its potentials part of a
// search's update.  runEngine then marks the Solver flowDirty and
// neither solved nor repairable, so the next Solve resets the
// residuals and re-validates the potentials (Bellman–Ford when they no
// longer certify non-negative reduced costs), and the next
// ResolveChanged falls back to that full solve.  Either reaches an
// optimum that Verify certifies, though not necessarily the
// undisturbed twin's potentials (TestUnarmedFailureResolvesClean).
// Semantic errors (infeasible, unbalanced, negative cycle) describe
// the instance, not the attempt: they are neither restored nor marked.
package mcmf

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Abort and failure errors.  ErrCanceled and ErrBudgetExhausted leave
// the Solver reusable with its pre-solve state restored;
// ErrEngineFailed wraps the panic value of a failed attempt.
var (
	// ErrCanceled reports that the context installed with SetContext
	// was canceled at a poll point.
	ErrCanceled = errors.New("mcmf: solve canceled")
	// ErrBudgetExhausted reports that the wall-clock deadline
	// (SetDeadline) or the cumulative work budget (SetWorkBudget)
	// expired at a poll point.
	ErrBudgetExhausted = errors.New("mcmf: solve budget exhausted")
	// ErrEngineFailed wraps a panic recovered from a Solve or
	// ResolveChanged attempt.
	ErrEngineFailed = errors.New("mcmf: engine failed")
)

// SetContext installs a cancellation context checked at every poll
// point; a canceled context aborts the running solve with ErrCanceled
// and restores the pre-solve state.  nil (or a context that can never
// be canceled, like context.Background) disarms the check.  A poll
// hook the context carries (WithPollHook) is installed with it, even
// from an uncancelable context.  Both persist across solves until
// replaced.
func (s *Solver) SetContext(ctx context.Context) {
	s.pollHook = nil
	if ctx != nil {
		s.pollHook, _ = ctx.Value(pollHookKey{}).(func(int64) error)
		if ctx.Done() == nil {
			ctx = nil // uncancelable: keep the unarmed fast path
		}
	}
	s.ctx = ctx
	s.reArm()
}

// pollHookKey is the context key of WithPollHook.
type pollHookKey struct{}

// WithPollHook returns a copy of ctx carrying h, which every Solver the
// context reaches through SetContext — directly, or through the
// contexts of dcs.System.SolveCtx and core.Session.Resize — calls at
// each poll point with the 1-based poll count of the current Solve or
// ResolveChanged attempt; a non-nil return aborts that attempt with
// the error.  It exists for deterministic mid-solve injection in tests
// (internal/fault).
func WithPollHook(ctx context.Context, h func(op int64) error) context.Context {
	return context.WithValue(ctx, pollHookKey{}, h)
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

// reArm recaches the armed flag after any abort-source change, keeping
// pollAbort's hot path a single branch.
func (s *Solver) reArm() {
	s.armed = s.ctx != nil || s.pollHook != nil || s.workBudget > 0 ||
		!s.deadline.IsZero()
}

// pollAbort is the abort funnel every inner loop polls.  It
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
		s.hookOps++
		if err := s.pollHook(s.hookOps); err != nil {
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

// isSemanticErr classifies the errors that describe the instance, not
// the attempt: the post-error state keeps its legacy semantics.
func isSemanticErr(err error) bool {
	return errors.Is(err, ErrInfeasible) || errors.Is(err, ErrUnbalanced) ||
		errors.Is(err, ErrNegativeCycle)
}

// attemptState snapshots the solve-mutable Solver state so an aborted
// or failed attempt can be rolled back exactly.  Costs, configured
// capacities, supplies and the routed snapshot are never mutated
// mid-solve and need no copy.
type attemptState struct {
	caps                          []int64 // residual capacity per residual arc; layoutArcs borrows it
	pot                           []int64
	solved, repairable, flowDirty bool
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
	if cap(a.pot) < len(s.node) {
		a.pot = make([]int64, len(s.node))
	}
	a.pot = a.pot[:len(s.node)]
	for v := range a.pot {
		a.pot[v] = s.node[v].pot
	}
	a.solved, a.repairable, a.flowDirty = s.solved, s.repairable, s.flowDirty
}

// restoreAttempt rolls the Solver back to the beginAttempt snapshot.
func (s *Solver) restoreAttempt() {
	a := &s.att
	for i := range a.caps {
		s.arcs[i].cap = a.caps[i]
	}
	for v, p := range a.pot {
		s.node[v].pot = p
	}
	s.solved, s.repairable, s.flowDirty = a.solved, a.repairable, a.flowDirty
}

// runEngine is the guarded dispatch behind Solver.Solve and
// Solver.ResolveChanged: snapshot when an abort source is armed, run
// the attempt under panic recovery, and on an abort or failure restore
// the snapshot — or, unarmed, mark the state for a clean next solve
// (see the file comment).
func (s *Solver) runEngine(changed []int32, resolve bool) (float64, error) {
	// Lay out a changed topology before the snapshot, which records
	// residual capacities by arc position.
	s.prepare()
	if s.armed {
		s.beginAttempt()
		s.hookOps = 0
	}
	cost, err := s.attempt(changed, resolve)
	if err == nil || isSemanticErr(err) {
		return cost, err
	}
	if s.armed {
		s.restoreAttempt()
	} else {
		s.flowDirty, s.solved, s.repairable = true, false, false
	}
	return 0, err
}

// attempt runs one solve under panic recovery, converting a panic into
// a typed ErrEngineFailed instead of crashing the process.
func (s *Solver) attempt(changed []int32, resolve bool) (cost float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			cost = 0
			err = fmt.Errorf("%w: solve panicked: %v", ErrEngineFailed, r)
		}
	}()
	if resolve {
		return s.resolve(changed)
	}
	return s.solveFull()
}
