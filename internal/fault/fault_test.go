// The robustness gate: every guarantee the hardened pipeline makes —
// failures and panics surfacing as typed errors, abort and failure
// rollback to a state whose next solve is bit-identical to an
// undisturbed twin's, budget enforcement — exercised by deterministic
// fault injection at points sampled across whole runs, and by
// FuzzFaultRollback at fuzzer-chosen points of full solves and
// resolves.  CI runs this package under -race.
package fault

import (
	"context"
	"errors"
	"math/rand"
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

// probeOps measures the abort-funnel operation count of one full solve:
// nothing injected, its own hook counts the polls.
func probeOps(t *testing.T) int64 {
	t.Helper()
	s := grid()
	var ops int64
	s.SetContext(mcmf.WithPollHook(context.Background(), func(op int64) error { ops = op; return nil }))
	if _, err := s.Solve(); err != nil {
		t.Fatalf("probe solve: %v", err)
	}
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

// TestInjectedFailureRollsBack: a solve failing — by error or by
// panic — at any sampled point of its run surfaces its typed error,
// never a crash, and the armed snapshot rolls the solver back, so the
// next clean solve is bit-identical to an undisturbed twin.
func TestInjectedFailureRollsBack(t *testing.T) {
	want := sspReference(t)
	ops := probeOps(t)
	for _, mode := range []Mode{Error, Panic} {
		tag := map[Mode]string{Error: "error", Panic: "panic"}[mode]
		for _, op := range samplePoints(ops) {
			s := grid()
			under(s, Plan{Mode: mode, Op: op})
			_, err := s.Solve()
			if mode == Error && !errors.Is(err, ErrInjected) {
				t.Fatalf("%s op %d/%d: Solve = %v, want ErrInjected", tag, op, ops, err)
			}
			if mode == Panic && !errors.Is(err, mcmf.ErrEngineFailed) {
				t.Fatalf("%s op %d/%d: Solve = %v, want ErrEngineFailed", tag, op, ops, err)
			}
			under(s, Plan{})
			cost, err := s.Solve()
			if err != nil {
				t.Fatalf("%s op %d: re-solve after the failure: %v", tag, op, err)
			}
			diff(t, tag+" re-solve", want, capture(s, cost))
			if err := s.Verify(); err != nil {
				t.Fatalf("%s op %d: Verify after the failure: %v", tag, op, err)
			}
		}
	}
}

// TestInjectedPanicWithoutFallback: a panicking solve has no fallback
// to re-run on; it surfaces as a typed ErrEngineFailed — never a crash
// — and the solver remains usable: the next clean solve reaches the
// optimum.
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

// TestInjectedErrorDuringResolve: a failure injected into the
// incremental path surfaces its typed error, the snapshot restores the
// previous flow, and the next resolve is bit-identical to a twin's
// undisturbed one (and certified by Verify).
func TestInjectedErrorDuringResolve(t *testing.T) {
	s, twin := grid(), grid()
	for _, x := range []*mcmf.Solver{s, twin} {
		if _, err := x.Solve(); err != nil {
			t.Fatal(err)
		}
	}
	changed := []int32{0, 7, 31}
	for _, x := range []*mcmf.Solver{s, twin} {
		for _, id := range changed {
			x.SetCost(int(id), x.Cost(int(id))+250)
		}
	}
	under(s, Plan{Mode: Error, Op: 2})
	if _, err := s.ResolveChanged(changed); !errors.Is(err, ErrInjected) {
		t.Fatalf("resolve under injection = %v, want ErrInjected", err)
	}
	under(s, Plan{})
	cost, err := s.ResolveChanged(changed)
	if err != nil {
		t.Fatalf("resolve after the failure: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify after the failed resolve: %v", err)
	}
	wantCost, err := twin.ResolveChanged(changed)
	if err != nil {
		t.Fatal(err)
	}
	diff(t, "resolve after the failure", capture(twin, wantCost), capture(s, cost))
}

// FuzzFaultRollback fires an error, a panic or a cancellation at a
// fuzzer-chosen poll of a full solve — cold, or warm after random cost
// edits — or of a resolve after such edits, on a grid instance.  The
// attempt must return its typed error, the armed snapshot must restore
// the solver's pre-attempt flows and potentials, and the next clean
// solve or resolve must be bit-identical to an undisturbed twin's.
func FuzzFaultRollback(f *testing.F) {
	f.Add(int64(7), uint8(0), uint16(1), false, uint8(0))
	f.Add(int64(1), uint8(1), uint16(40), false, uint8(5))
	f.Add(int64(2), uint8(2), uint16(9), true, uint8(12))
	f.Add(int64(3), uint8(1), uint16(500), true, uint8(40))
	f.Add(int64(4), uint8(2), uint16(77), false, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, mode uint8, op uint16, resolve bool, edits uint8) {
		m := []Mode{Error, Panic, Cancel}[int(mode)%3]
		s, twin := mcmf.NewGridInstance(8, 12, seed), mcmf.NewGridInstance(8, 12, seed)
		// A cold solve rolls back to the unsolved state: no flow and
		// the zero potentials the first solve starts from.
		before := state{flows: make([]int64, s.NumArcs()), pots: make([]int64, s.N())}
		var changed []int32
		if k := int(edits) % 25; resolve || k > 0 {
			for _, x := range []*mcmf.Solver{s, twin} {
				if _, err := x.Solve(); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			for range max(k, 1) {
				id := rng.Intn(s.NumArcs())
				c := max(0, s.Cost(id)+int64(rng.Intn(400))-100)
				s.SetCost(id, c)
				twin.SetCost(id, c)
				changed = append(changed, int32(id))
			}
			before = capture(s, 0)
		}
		run := func(x *mcmf.Solver) (float64, error) {
			if resolve {
				return x.ResolveChanged(changed)
			}
			return x.Solve()
		}

		var ops int64
		twin.SetContext(mcmf.WithPollHook(context.Background(), func(op int64) error { ops = op; return nil }))
		wantCost, err := run(twin)
		if err != nil {
			t.Fatalf("undisturbed twin: %v", err)
		}
		if ops == 0 {
			return // no poll to fire at
		}
		want := capture(twin, wantCost)

		at := 1 + int64(op)%ops
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s.SetContext(Context(ctx, Plan{Mode: m, Op: at, OnCancel: cancel}))
		_, err = run(s)
		wantErr := map[Mode]error{Error: ErrInjected, Panic: mcmf.ErrEngineFailed, Cancel: mcmf.ErrCanceled}[m]
		if !errors.Is(err, wantErr) {
			t.Fatalf("fault at op %d/%d: %v, want %v", at, ops, err, wantErr)
		}
		diff(t, "state after the rolled-back attempt", before, capture(s, 0))

		s.SetContext(nil)
		cost, err := run(s)
		if err != nil {
			t.Fatalf("clean run after the fault: %v", err)
		}
		diff(t, "clean run after the fault", want, capture(s, cost))
	})
}
