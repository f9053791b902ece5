// Package fault registers a deterministic fault-injecting wrapper
// engine ("fault") in the mcmf backend registry, for driving the
// solver's robustness guarantees — panic recovery, engine fallback,
// abort rollback, budget enforcement — from tests without touching
// production code paths.
//
// The wrapper delegates Solve/Resolve to a configured inner backend
// and, while the inner engine runs, occupies the solver's poll hook to
// count abort-funnel operations (augmentations, discharges,
// Bellman–Ford rounds — exactly the points where a real engine can be
// interrupted) and fire the configured fault at the Nth one: a
// returned error, a panic, an injected wall-clock delay, or a caller
// callback (typically canceling the context governing the solve).
// Operation counting is deterministic for deterministic engines, so a
// failure "at operation 17" reproduces exactly.
//
// Importing this package (for its registration side effect) is meant
// for test binaries only; the engine never registers in production
// builds because nothing there imports it.
//
// The wrapper owns the solver's poll hook for the duration of a
// Solve/Resolve call — callers must not install their own hook on the
// same solver while the "fault" engine is active.  Context, deadline
// and work-budget abort sources compose normally (the funnel checks
// them on the same polls that feed the wrapper's counter).
package fault

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minflo/internal/mcmf"
)

// Mode selects what the wrapper injects at the trigger operation.
type Mode int

const (
	// None injects nothing: the wrapper is a transparent proxy that
	// still counts operations (see Ops) — the probe mode tests use to
	// measure a run's length before choosing injection points.
	None Mode = iota
	// Error makes the poll hook return Plan.Err (ErrInjected when nil),
	// surfacing from the inner engine like any mid-solve failure.
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

// Plan configures the next runs of every "fault" engine instance.
type Plan struct {
	// Inner names the wrapped backend (mcmf.CanonicalEngine: "", "auto"
	// and "dial" wrap "ssp").
	Inner string
	// Mode selects the fault; None counts operations only.
	Mode Mode
	// Op is the 1-based operation the fault fires at.
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

var (
	planMu  sync.Mutex
	plan    Plan
	lastOps atomic.Int64
)

// SetPlan installs the plan governing subsequent Solve/Resolve calls
// of every "fault" engine.
func SetPlan(p Plan) {
	planMu.Lock()
	plan = p
	planMu.Unlock()
}

// Reset clears the plan (equivalent to SetPlan(Plan{})).
func Reset() { SetPlan(Plan{}) }

func currentPlan() Plan {
	planMu.Lock()
	defer planMu.Unlock()
	return plan
}

// Ops reports how many abort-funnel operations the most recently
// finished fault-engine run observed — the probe measurement tests use
// to place injection points inside a run deterministically.
func Ops() int64 { return lastOps.Load() }

// engine is the registered wrapper.  The inner engine persists across
// calls (its counters behave like a directly installed backend's) and
// is rebuilt only when the plan names a different backend.
type engine struct {
	inner     mcmf.Engine
	innerName string
}

func (e *engine) Name() string { return "fault" }

func (e *engine) Solve(s *mcmf.Solver) (float64, error) {
	return e.run(s, func(in mcmf.Engine) (float64, error) { return in.Solve(s) })
}

func (e *engine) Resolve(s *mcmf.Solver, changed []int32) (float64, error) {
	return e.run(s, func(in mcmf.Engine) (float64, error) { return in.Resolve(s, changed) })
}

func (e *engine) run(s *mcmf.Solver, call func(mcmf.Engine) (float64, error)) (float64, error) {
	p := currentPlan()
	name, _ := mcmf.CanonicalEngine(p.Inner)
	if e.inner == nil || e.innerName != name {
		in, err := mcmf.NewEngine(name)
		if err != nil {
			return 0, err
		}
		e.inner, e.innerName = in, name
	}
	var ops int64
	s.SetPollHook(func() error {
		ops++
		lastOps.Store(ops)
		if p.Mode == None || ops < p.Op || (ops > p.Op && !p.Repeat) {
			return nil
		}
		switch p.Mode {
		case Error:
			if p.Err != nil {
				return p.Err
			}
			return ErrInjected
		case Panic:
			panic(fmt.Sprintf("fault: injected panic at op %d", ops))
		case Delay:
			time.Sleep(p.Delay)
		case Cancel:
			if p.OnCancel != nil {
				p.OnCancel()
			}
		}
		return nil
	})
	// Cleared even when the inner engine panics (the solver's recover
	// sits above this frame), so a fallback attempt or a later solve
	// never runs with a stale injection hook.
	defer s.SetPollHook(nil)
	return call(e.inner)
}

func (e *engine) Stats() mcmf.Stats {
	if e.inner == nil {
		return mcmf.Stats{}
	}
	return e.inner.Stats()
}

// ResetWorkCounters forwards the per-problem counter reset.
func (e *engine) ResetWorkCounters() {
	if r, ok := e.inner.(interface{ ResetWorkCounters() }); ok {
		r.ResetWorkCounters()
	}
}

func init() {
	mcmf.Register("fault", func() mcmf.Engine { return &engine{} })
}
