// The robustness gate: every guarantee the hardened pipeline makes —
// the heap rescue bit-identical to an undisturbed solve, panics
// surfacing as typed errors, abort rollback, budget enforcement —
// exercised by deterministic fault injection at points sampled across
// whole runs.  CI runs this
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

// under installs plan p on s, over a background context.
func under(s *mcmf.Solver, p Plan) { s.SetContext(Context(context.Background(), p)) }

// probeOps measures the abort-funnel operation count of one full solve
// (probe mode: nothing injected).
func probeOps(t *testing.T) int64 {
	t.Helper()
	s := grid()
	under(s, Plan{})
	if _, err := s.Solve(); err != nil {
		t.Fatalf("probe solve: %v", err)
	}
	ops := Ops()
	if ops == 0 {
		t.Fatal("probe solve observed no operations")
	}
	return ops
}

// samplePoints spreads injection points across a run of length ops.
func samplePoints(ops int64) []int64 {
	return []int64{1, ops / 4, ops / 2, 3 * ops / 4, ops}
}

// sspReference solves the grid undisturbed.
func sspReference(t *testing.T) state {
	t.Helper()
	ref := grid()
	cost, err := ref.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return capture(ref, cost)
}

// TestInjectedFailureFallsBackToSSP is the rescue gate: a solve
// failing — by error or by panic — at ANY point of its run must be
// rescued by the heap re-run with the final state bit-identical to an
// undisturbed twin, the failure recorded, never a crash.
func TestInjectedFailureFallsBackToSSP(t *testing.T) {
	want := sspReference(t)
	ops := probeOps(t)
	for _, mode := range []Mode{Error, Panic} {
		for _, op := range samplePoints(ops) {
			s := grid()
			s.SetEngineFallback(true)
			under(s, Plan{Mode: mode, Op: op})
			cost, err := s.Solve()
			tag := map[Mode]string{Error: "error", Panic: "panic"}[mode]
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
			diff(t, tag, want, capture(s, cost))
			if err := s.Verify(); err != nil {
				t.Fatalf("%s op %d: Verify after fallback: %v", tag, op, err)
			}
		}
	}
}

// TestInjectedPanicWithoutFallback: with the rescue off, a panicking
// solve surfaces as a typed ErrEngineFailed — never a crash — and the
// solver remains usable: the next clean solve reaches the optimum.
func TestInjectedPanicWithoutFallback(t *testing.T) {
	want := sspReference(t)
	s := grid()
	under(s, Plan{Mode: Panic, Op: 5})
	if _, err := s.Solve(); !errors.Is(err, mcmf.ErrEngineFailed) {
		t.Fatalf("Solve = %v, want ErrEngineFailed", err)
	}
	under(s, Plan{})
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
// clean solve is bit-identical to a never-canceled twin.
func TestInjectedCancelRollsBack(t *testing.T) {
	ops := probeOps(t)
	want := sspReference(t)
	for _, op := range samplePoints(ops) {
		s := grid()
		ctx, cancel := context.WithCancel(context.Background())
		s.SetContext(Context(ctx, Plan{Mode: Cancel, Op: op, OnCancel: cancel}))
		if _, err := s.Solve(); !errors.Is(err, mcmf.ErrCanceled) {
			cancel()
			t.Fatalf("op %d/%d: Solve = %v, want ErrCanceled", op, ops, err)
		}
		cancel()
		under(s, Plan{})
		cost, err := s.Solve()
		if err != nil {
			t.Fatalf("op %d: re-solve after cancel: %v", op, err)
		}
		diff(t, "re-solve after injected cancel", want, capture(s, cost))
	}
}

// TestInjectedDelayHitsDeadline: an injected stall makes the
// wall-clock deadline fire mid-solve with ErrBudgetExhausted, the
// state rolls back, and clearing the deadline re-solves bit-identical
// to an undisturbed twin.
func TestInjectedDelayHitsDeadline(t *testing.T) {
	want := sspReference(t)
	s := grid()
	s.SetDeadline(time.Now().Add(10 * time.Millisecond))
	under(s, Plan{Mode: Delay, Op: 1, Repeat: true, Delay: 2 * time.Millisecond})
	if _, err := s.Solve(); !errors.Is(err, mcmf.ErrBudgetExhausted) {
		t.Fatalf("Solve = %v, want ErrBudgetExhausted", err)
	}
	s.SetDeadline(time.Time{})
	under(s, Plan{})
	cost, err := s.Solve()
	if err != nil {
		t.Fatalf("re-solve after deadline: %v", err)
	}
	diff(t, "re-solve after deadline", want, capture(s, cost))
}

// TestWorkBudgetExhaustion: the flow-work budget, composed with a
// probe hook, cuts a solve short deterministically, rolls back, and
// lifting it re-solves clean.
func TestWorkBudgetExhaustion(t *testing.T) {
	want := sspReference(t)
	s := grid()
	under(s, Plan{})
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
// incremental path is rescued on the heap and still reaches the
// optimum of the mutated instance (certified by Verify and a
// fresh-twin cost).
func TestInjectedErrorDuringResolve(t *testing.T) {
	s := grid()
	s.SetEngineFallback(true)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	changed := []int32{0, 7, 31}
	for _, id := range changed {
		s.SetCost(int(id), s.Cost(int(id))+250)
	}
	under(s, Plan{Mode: Error, Op: 2})
	cost, err := s.ResolveChanged(changed)
	if err != nil {
		t.Fatalf("resolve under injection: %v", err)
	}
	if got := s.EngineFailures(); got != 1 {
		t.Fatalf("EngineFailures = %d, want 1", got)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify after rescued resolve: %v", err)
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
		t.Fatalf("rescued resolve cost %v != fresh optimum %v", cost, wantCost)
	}
}
