// The robustness gate: every guarantee the hardened pipeline makes —
// fallback bit-identical to ssp, panics surfacing as typed errors,
// abort rollback, budget enforcement — exercised by deterministic
// fault injection at points sampled across whole runs.  CI runs this
// package under -race.
package fault

import (
	"context"
	"errors"
	"testing"
	"time"

	"minflo/internal/mcmf"
)

// grid returns the standard deterministic workload.
func grid() *mcmf.Solver { return mcmf.NewGridInstance(12, 24, 7) }

type state struct {
	cost  float64
	flows []int64
	pots  []int64
}

func capture(s *mcmf.Solver, cost float64) state {
	st := state{cost: cost}
	for id := 0; id < s.NumArcs(); id++ {
		st.flows = append(st.flows, s.Flow(id))
	}
	for v := 0; v < s.N(); v++ {
		st.pots = append(st.pots, s.Potential(v))
	}
	return st
}

func diff(t *testing.T, tag string, want, got state) {
	t.Helper()
	if want.cost != got.cost {
		t.Fatalf("%s: cost %v != reference %v", tag, got.cost, want.cost)
	}
	for i := range want.flows {
		if want.flows[i] != got.flows[i] {
			t.Fatalf("%s: arc %d flow %d != reference %d", tag, i, got.flows[i], want.flows[i])
		}
	}
	for v := range want.pots {
		if want.pots[v] != got.pots[v] {
			t.Fatalf("%s: node %d potential %d != reference %d", tag, v, got.pots[v], want.pots[v])
		}
	}
}

// probeOps measures the abort-funnel operation count of one full solve
// with the given inner engine (probe mode: nothing injected).
func probeOps(t *testing.T, inner string) int64 {
	t.Helper()
	defer Reset()
	s := grid()
	if err := s.SetEngine("fault"); err != nil {
		t.Fatal(err)
	}
	SetPlan(Plan{Inner: inner})
	if _, err := s.Solve(); err != nil {
		t.Fatalf("probe solve (%s): %v", inner, err)
	}
	ops := Ops()
	if ops == 0 {
		t.Fatalf("probe solve (%s) observed no operations", inner)
	}
	return ops
}

// samplePoints spreads injection points across a run of length ops.
func samplePoints(ops int64) []int64 {
	return []int64{1, ops / 4, ops / 2, 3 * ops / 4, ops}
}

// sspReference solves the grid with the ssp reference engine.
func sspReference(t *testing.T) state {
	t.Helper()
	ref := grid()
	cost, err := ref.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return capture(ref, cost)
}

// TestInjectedFailureFallsBackToSSP is the degradation gate: an engine
// failing — by error or by panic — at ANY point of its run must be
// rescued by the ssp fallback with the final state bit-identical to a
// pure-ssp twin, the failure recorded, never a crash.
func TestInjectedFailureFallsBackToSSP(t *testing.T) {
	defer Reset()
	want := sspReference(t)
	for _, inner := range []string{"ssp", "costscaling"} {
		ops := probeOps(t, inner)
		for _, mode := range []Mode{Error, Panic} {
			for _, op := range samplePoints(ops) {
				s := grid()
				if err := s.SetEngine("fault"); err != nil {
					t.Fatal(err)
				}
				s.SetEngineFallback(true)
				SetPlan(Plan{Inner: inner, Mode: mode, Op: op})
				cost, err := s.Solve()
				Reset()
				tag := func() string {
					return inner + "/" + map[Mode]string{Error: "error", Panic: "panic"}[mode]
				}()
				if err != nil {
					t.Fatalf("%s op %d/%d: fallback did not rescue: %v", tag, op, ops, err)
				}
				if got := s.EngineFailures(); got != 1 {
					t.Fatalf("%s op %d: EngineFailures = %d, want 1", tag, op, got)
				}
				lf := s.LastEngineFailure()
				if mode == Error && !errors.Is(lf, ErrInjected) {
					t.Fatalf("%s op %d: LastEngineFailure = %v, want ErrInjected", tag, op, lf)
				}
				if mode == Panic && !errors.Is(lf, mcmf.ErrEngineFailed) {
					t.Fatalf("%s op %d: LastEngineFailure = %v, want ErrEngineFailed", tag, op, lf)
				}
				if name := s.EngineName(); name != "ssp" {
					t.Fatalf("%s op %d: degraded to %q, want ssp", tag, op, name)
				}
				diff(t, tag, want, capture(s, cost))
				if err := s.Verify(); err != nil {
					t.Fatalf("%s op %d: Verify after fallback: %v", tag, op, err)
				}
			}
		}
	}
}

// TestInjectedPanicWithoutFallback: with degradation off, a panicking
// engine surfaces as a typed ErrEngineFailed — never a crash — and the
// solver remains usable: the next clean solve reaches the optimum.
func TestInjectedPanicWithoutFallback(t *testing.T) {
	defer Reset()
	want := sspReference(t)
	s := grid()
	if err := s.SetEngine("fault"); err != nil {
		t.Fatal(err)
	}
	SetPlan(Plan{Inner: "ssp", Mode: Panic, Op: 5})
	if _, err := s.Solve(); !errors.Is(err, mcmf.ErrEngineFailed) {
		t.Fatalf("Solve = %v, want ErrEngineFailed", err)
	}
	SetPlan(Plan{Inner: "ssp"})
	cost, err := s.Solve()
	if err != nil {
		t.Fatalf("re-solve after recovered panic: %v", err)
	}
	if cost != want.cost {
		t.Fatalf("re-solve cost %v != optimum %v", cost, want.cost)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify after recovered panic: %v", err)
	}
}

// TestInjectedCancelRollsBack: a context canceled deep inside a run
// returns ErrCanceled with the pre-solve state restored, so the next
// clean solve is bit-identical to a never-canceled twin running the
// same inner engine.
func TestInjectedCancelRollsBack(t *testing.T) {
	defer Reset()
	ops := probeOps(t, "ssp")
	want := sspReference(t)
	for _, op := range samplePoints(ops) {
		s := grid()
		if err := s.SetEngine("fault"); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.SetContext(ctx)
		SetPlan(Plan{Inner: "ssp", Mode: Cancel, Op: op, OnCancel: cancel})
		if _, err := s.Solve(); !errors.Is(err, mcmf.ErrCanceled) {
			cancel()
			t.Fatalf("op %d/%d: Solve = %v, want ErrCanceled", op, ops, err)
		}
		cancel()
		s.SetContext(nil)
		SetPlan(Plan{Inner: "ssp"})
		cost, err := s.Solve()
		if err != nil {
			t.Fatalf("op %d: re-solve after cancel: %v", op, err)
		}
		diff(t, "re-solve after injected cancel", want, capture(s, cost))
		Reset()
	}
}

// TestInjectedDelayHitsDeadline: a wrapper-injected stall makes the
// wall-clock deadline fire mid-solve with ErrBudgetExhausted, the
// state rolls back, and clearing the deadline re-solves bit-identical
// to an undisturbed ssp twin.
func TestInjectedDelayHitsDeadline(t *testing.T) {
	defer Reset()
	want := sspReference(t)
	s := grid()
	if err := s.SetEngine("fault"); err != nil {
		t.Fatal(err)
	}
	s.SetDeadline(time.Now().Add(10 * time.Millisecond))
	SetPlan(Plan{Inner: "ssp", Mode: Delay, Op: 1, Repeat: true, Delay: 2 * time.Millisecond})
	if _, err := s.Solve(); !errors.Is(err, mcmf.ErrBudgetExhausted) {
		t.Fatalf("Solve = %v, want ErrBudgetExhausted", err)
	}
	s.SetDeadline(time.Time{})
	SetPlan(Plan{Inner: "ssp"})
	cost, err := s.Solve()
	if err != nil {
		t.Fatalf("re-solve after deadline: %v", err)
	}
	diff(t, "re-solve after deadline", want, capture(s, cost))
}

// TestWorkBudgetExhaustion: the flow-work budget cuts a solve short
// deterministically, rolls back, and lifting it re-solves clean.
func TestWorkBudgetExhaustion(t *testing.T) {
	defer Reset()
	want := sspReference(t)
	s := grid()
	if err := s.SetEngine("fault"); err != nil {
		t.Fatal(err)
	}
	SetPlan(Plan{Inner: "ssp"})
	s.SetWorkBudget(10)
	if _, err := s.Solve(); !errors.Is(err, mcmf.ErrBudgetExhausted) {
		t.Fatalf("Solve = %v, want ErrBudgetExhausted", err)
	}
	s.SetWorkBudget(0)
	cost, err := s.Solve()
	if err != nil {
		t.Fatalf("re-solve after work budget: %v", err)
	}
	diff(t, "re-solve after work budget", want, capture(s, cost))
}

// TestInjectedErrorDuringResolve: failure injected into the
// incremental path degrades to ssp and still reaches the optimum of
// the mutated instance (certified by Verify and a fresh-twin cost).
func TestInjectedErrorDuringResolve(t *testing.T) {
	defer Reset()
	s := grid()
	if err := s.SetEngine("fault"); err != nil {
		t.Fatal(err)
	}
	s.SetEngineFallback(true)
	SetPlan(Plan{Inner: "ssp"})
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	changed := []int32{0, 7, 31}
	for _, id := range changed {
		s.SetCost(int(id), s.Cost(int(id))+250)
	}
	SetPlan(Plan{Inner: "ssp", Mode: Error, Op: 2})
	cost, err := s.ResolveChanged(changed)
	Reset()
	if err != nil {
		t.Fatalf("resolve under injection: %v", err)
	}
	if got := s.EngineFailures(); got != 1 {
		t.Fatalf("EngineFailures = %d, want 1", got)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify after degraded resolve: %v", err)
	}
	// The optimum is unique even when optimal flows are not: a fresh
	// twin with the same mutations must agree on cost.
	twin := grid()
	for _, id := range changed {
		twin.SetCost(int(id), twin.Cost(int(id))+250)
	}
	wantCost, err := twin.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if cost != wantCost {
		t.Fatalf("degraded resolve cost %v != fresh optimum %v", cost, wantCost)
	}
}

// TestDialAliasRunsSSP: "", "auto" and the deprecated "dial" all
// select ssp — on a Solver, on a Solver already running ssp (which
// keeps its engine and counters), and as a fault Plan's inner engine —
// and each solves bit-identical to the ssp reference.
func TestDialAliasRunsSSP(t *testing.T) {
	defer Reset()
	want := sspReference(t)
	for _, name := range []string{"", "auto", "dial"} {
		if canon, ok := mcmf.CanonicalEngine(name); canon != "ssp" || !ok || !mcmf.ValidEngine(name) {
			t.Fatalf("CanonicalEngine(%q) = %q, %v; want ssp", name, canon, ok)
		}
		s := grid()
		if err := s.SetEngine(name); err != nil {
			t.Fatal(err)
		}
		if got := s.EngineName(); got != "ssp" {
			t.Fatalf("SetEngine(%q): engine %q, want ssp", name, got)
		}
		cost, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		diff(t, "engine "+name, want, capture(s, cost))
		if err := s.SetEngine(name); err != nil {
			t.Fatal(err)
		}
		if got := s.EngineStats().Solves; got != 1 {
			t.Fatalf("SetEngine(%q) on ssp reset the counters: %d solves, want 1", name, got)
		}

		f := grid()
		if err := f.SetEngine("fault"); err != nil {
			t.Fatal(err)
		}
		SetPlan(Plan{Inner: name})
		cost, err = f.Solve()
		if err != nil {
			t.Fatalf("fault Inner %q: %v", name, err)
		}
		diff(t, "fault Inner "+name, want, capture(f, cost))
	}
	for _, name := range mcmf.EngineNames() {
		if name == "dial" {
			t.Fatalf("EngineNames lists the deprecated alias: %v", mcmf.EngineNames())
		}
	}
}
