// Package fault injects deterministic faults into mcmf solves, for
// driving the solver's robustness guarantees — panic recovery, typed
// failures, abort and failure rollback, budget enforcement — from
// tests without touching production code paths.
//
// Context attaches a Plan to a context.Context as the solver's poll
// hook (mcmf.WithPollHook).  Every Solver the context reaches through
// SetContext — directly, or through core.Session.Resize and
// dcs.System.SolveCtx — counts the abort-funnel operations
// (augmentations, phase searches, discharges, Bellman–Ford rounds:
// exactly the points where a solve can be interrupted) of each Solve
// or ResolveChanged attempt and fires the plan's fault at the Op-th: a
// returned error, a panic, an injected wall-clock delay, or a caller
// callback (typically canceling the context governing the solve).
// Operation counting is deterministic, so a failure "at operation 17"
// reproduces exactly.  A failed attempt is never re-run: its error
// surfaces, and the attempt's snapshot restores the solver.
//
// Only test binaries import this package; CI fails the build when a
// non-test package does.
package fault

import (
	"context"
	"errors"
	"fmt"
	"time"

	"minflo/internal/mcmf"
)

// Mode selects what a plan injects at the trigger operation.
type Mode int

const (
	// None injects nothing — a clean attempt under a Context.  Tests
	// that measure a run's length before choosing injection points
	// count its polls with their own mcmf.WithPollHook.
	None Mode = iota
	// Error makes the poll hook return Plan.Err (ErrInjected when nil),
	// surfacing from the solve like any mid-solve failure.
	Error
	// Panic panics from the poll hook, exercising the solver's
	// recover-and-classify path (mcmf.ErrEngineFailed).
	Panic
	// Delay sleeps Plan.Delay at the trigger (and, with Repeat, at
	// every later operation) — for driving wall-clock deadline tests.
	Delay
	// Cancel invokes Plan.OnCancel at the trigger, typically canceling
	// the context the solve runs under.
	Cancel
)

// ErrInjected is the default payload of Error-mode injections.
var ErrInjected = errors.New("fault: injected failure")

// Plan configures the fault fired in every attempt a context carrying
// it reaches.
type Plan struct {
	// Mode selects the fault; None counts operations only.
	Mode Mode
	// Op is the 1-based operation of an attempt the fault fires at.
	Op int64
	// Repeat fires at every operation ≥ Op instead of only the Op-th.
	Repeat bool
	// Err overrides the Error-mode payload (ErrInjected when nil).
	Err error
	// Delay is the Delay-mode sleep per trigger.
	Delay time.Duration
	// OnCancel is the Cancel-mode callback.
	OnCancel func()
}

// Context returns a copy of ctx that carries p's poll hook.
func Context(ctx context.Context, p Plan) context.Context {
	return mcmf.WithPollHook(ctx, p.poll)
}

// poll is the hook: op is the attempt's 1-based operation count.
func (p Plan) poll(op int64) error {
	if p.Mode == None || op < p.Op || (op > p.Op && !p.Repeat) {
		return nil
	}
	switch p.Mode {
	case Error:
		if p.Err != nil {
			return p.Err
		}
		return ErrInjected
	case Panic:
		panic(fmt.Sprintf("fault: injected panic at op %d", op))
	case Delay:
		time.Sleep(p.Delay)
	case Cancel:
		if p.OnCancel != nil {
			p.OnCancel()
		}
	}
	return nil
}
