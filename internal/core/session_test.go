package core

import (
	"context"
	"errors"
	"testing"

	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/tech"
)

func mustProblem(t testing.TB, name string) *dag.Problem {
	t.Helper()
	m := delay.NewModel(tech.Default013())
	var p *dag.Problem
	var err error
	switch name {
	case "adder16":
		p, err = dag.GateLevel(gen.RippleAdder(16, gen.FABuffered), m)
	case "adder32":
		p, err = dag.GateLevel(gen.RippleAdder(32, gen.FABuffered), m)
	case "c17":
		p, err = dag.GateLevel(gen.C17(), m)
	case "mult8":
		p, err = dag.GateLevel(gen.ArrayMultiplier(8), m)
	case "c1908":
		p, err = dag.GateLevel(gen.C1908(), m)
	default:
		t.Fatalf("unknown problem %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSessionReplayDeterminism is the contract the serving layer
// stands on: a session's answers are a deterministic function of the
// query sequence served since its last cold build.  A serial twin
// session replaying the same sequence answers every query
// bit-identically — which is exactly how the server's soak test
// checks concurrent sessions, and why a cold-rebuilt (evicted or
// quarantined) session is trustworthy: it answers like a fresh twin
// replaying the post-rebuild sequence.
//
// Warm answers are NOT bitwise-identical to one-shot cold answers of
// the same query: the incremental re-flow lands on an equally optimal
// but different dual solution than a fresh solve (degenerate LP), so
// the D/W trajectory drifts at the last-bits level.  The second half
// of the test bounds that drift — warm and cold answers agree on
// feasibility and on area to 1e-3 relative — so the warm path can
// never silently trade answer quality for speed.
func TestSessionReplayDeterminism(t *testing.T) {
	t.Run("ssp", func(t *testing.T) {
		opt := Options{}
		pWarm := mustProblem(t, "adder16")
		warm, err := NewSession(pWarm, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer warm.Close()
		pTwin := mustProblem(t, "adder16")
		twin, err := NewSession(pTwin, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer twin.Close()

		// Dmin from the problem's minimum sizes.
		tmin := minCP(t, pWarm)
		targets := []float64{0.6 * tmin, 0.5 * tmin, 0.75 * tmin, 0.55 * tmin, 0.75 * tmin}

		for qi, T := range targets {
			rw, err := warm.Resize(context.Background(), T, Budgets{})
			if err != nil {
				t.Fatalf("warm query %d: %v", qi, err)
			}
			rt, err := twin.Resize(context.Background(), T, Budgets{})
			if err != nil {
				t.Fatalf("twin query %d: %v", qi, err)
			}
			if !bitEqual(rw.X, rt.X) || rw.Area != rt.Area || rw.CP != rt.CP || rw.Iterations != rt.Iterations {
				t.Fatalf("query %d (T=%g): session answer diverged from replaying twin\nwarm: area %.17g cp %.17g iters %d\ntwin: area %.17g cp %.17g iters %d",
					qi, T, rw.Area, rw.CP, rw.Iterations, rt.Area, rt.CP, rt.Iterations)
			}

			// One-shot cold run: must agree on feasibility and area
			// within tolerance (equally optimal, not bit-equal).
			pCold := mustProblem(t, "adder16")
			cold, err := NewSession(pCold, opt)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := cold.Resize(context.Background(), T, Budgets{})
			cold.Close()
			if err != nil {
				t.Fatalf("cold query %d: %v", qi, err)
			}
			if rw.CP > T*(1+1e-9) {
				t.Fatalf("query %d: warm CP %g violates target %g", qi, rw.CP, T)
			}
			if rel := (rw.Area - rc.Area) / rc.Area; rel > 1e-3 || rel < -1e-3 {
				t.Fatalf("query %d: warm area %.17g vs cold %.17g (rel %g) beyond tolerance",
					qi, rw.Area, rc.Area, rel)
			}
		}

		// The warm path must actually be warm: one network build for
		// the whole session and incremental re-flows across queries.
		if got := warm.sc.sys.Builds(); got != 1 {
			t.Fatalf("session built the flow network %d times, want 1", got)
		}
		if warm.FlowResolves() == 0 {
			t.Fatalf("no incremental D-phase resolves across %d warm queries", len(targets))
		}
	})
}

// minCP returns the minimum-size critical path of p.
func minCP(t testing.TB, p *dag.Problem) float64 {
	t.Helper()
	s, err := NewSession(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The arrivals engine is seeded at minimum sizes; retime reports it.
	return s.sc.retime(p, p.InitialSizes())
}

// TestSessionWhatIfCost drives the warm what-if path: scaling a
// gate's area weight re-prices the objective through the same warm
// constraint system (no rebuild) and matches a cold session built
// with the same weights.
func TestSessionWhatIfCost(t *testing.T) {
	opt := Options{}
	p := mustProblem(t, "adder16")
	sess, err := NewSession(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	T := 0.6 * minCP(t, p)
	r0, err := sess.Resize(context.Background(), T, Budgets{})
	if err != nil {
		t.Fatal(err)
	}

	// What-if: gate 0's area suddenly costs 10×.
	w0 := sess.AreaWeight(0)
	if err := sess.SetAreaWeight(0, 10*w0); err != nil {
		t.Fatal(err)
	}
	r1, err := sess.Resize(context.Background(), T, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Area == r0.Area && bitEqual(r1.X, r0.X) {
		t.Fatalf("10x cost change produced an identical sizing (area %g)", r1.Area)
	}

	// Replaying twin: the same sequence — resize, reweight, resize —
	// on a fresh session answers bit-identically at every step.
	pt := mustProblem(t, "adder16")
	twin, err := NewSession(pt, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	rt0, err := twin.Resize(context.Background(), T, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(rt0.X, r0.X) {
		t.Fatal("twin replay step 0 diverged")
	}
	if err := twin.SetAreaWeight(0, 10*w0); err != nil {
		t.Fatal(err)
	}
	rt1, err := twin.Resize(context.Background(), T, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(rt1.X, r1.X) {
		t.Fatalf("twin replay of the what-if diverged: area %.17g vs %.17g", rt1.Area, r1.Area)
	}
	if sess.sc.sys.Builds() != 1 {
		t.Fatalf("what-if rebuilt the network (%d builds)", sess.sc.sys.Builds())
	}

	// Restoring the weight restores the original answer to within the
	// warm-path optimality tolerance (equally optimal dual solutions
	// drift at the last-bits level; see TestSessionReplayDeterminism).
	if err := sess.SetAreaWeight(0, w0); err != nil {
		t.Fatal(err)
	}
	r2, err := sess.Resize(context.Background(), T, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if rel := (r2.Area - r0.Area) / r0.Area; rel > 1e-3 || rel < -1e-3 {
		t.Fatalf("restoring the area weight moved the answer beyond tolerance: %.17g vs %.17g", r2.Area, r0.Area)
	}
}

// TestSessionPerCallBudgets: each Resize gets its own flow-work
// allowance — earlier spend must not starve later calls (the budget
// composes with the solver's cumulative work counter).
func TestSessionPerCallBudgets(t *testing.T) {
	p := mustProblem(t, "adder32")
	sess, err := NewSession(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	T := 0.55 * minCP(t, p)

	// Generous budget: completes.
	if _, err := sess.Resize(context.Background(), T, Budgets{FlowWorkBudget: 1 << 40}); err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	// Tiny budget: must exhaust (partial), not silently complete.
	r, err := sess.Resize(context.Background(), T, Budgets{FlowWorkBudget: 1})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("tiny budget: err = %v, want ErrBudgetExhausted", err)
	}
	if r == nil || !r.Partial {
		t.Fatalf("tiny budget: partial best-so-far missing (r=%v)", r)
	}
	// And a later generous call gets its own allowance again.
	r2, err := sess.Resize(context.Background(), T, Budgets{FlowWorkBudget: 1 << 40})
	if err != nil {
		t.Fatalf("post-exhaustion budget did not reset per call: %v", err)
	}
	if r2.Partial {
		t.Fatal("post-exhaustion resize still partial")
	}
}

// TestSessionCanceledThenClean: an abort mid-query leaves the warm
// state reusable — the next identical query answers bit-identically
// to a never-canceled twin (the mcmf abort rollback, surfaced at the
// session level).
func TestSessionCanceledThenClean(t *testing.T) {
	opt := Options{}
	p := mustProblem(t, "adder16")
	sess, err := NewSession(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	T := 0.6 * minCP(t, p)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Resize(ctx, T, Budgets{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled resize: err = %v, want ErrCanceled", err)
	}

	r, err := sess.Resize(context.Background(), T, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	pc := mustProblem(t, "adder16")
	cold, err := NewSession(pc, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	rc, err := cold.Resize(context.Background(), T, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(r.X, rc.X) {
		t.Fatal("post-cancel warm answer diverged from never-canceled cold twin")
	}
}

// TestSessionMemoryBytes: the footprint estimate is positive, stable
// across queries (warm state does not grow per query) and scales with
// problem size.
func TestSessionMemoryBytes(t *testing.T) {
	small := mustProblem(t, "c17")
	big := mustProblem(t, "mult8")
	ss, err := NewSession(small, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	sb, err := NewSession(big, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	if ss.MemoryBytes() <= 0 || sb.MemoryBytes() <= 0 {
		t.Fatalf("non-positive estimates: %d, %d", ss.MemoryBytes(), sb.MemoryBytes())
	}
	if sb.MemoryBytes() < 10*ss.MemoryBytes() {
		t.Fatalf("mult8 (%d gates) estimate %d not ≫ c17 (%d gates) estimate %d",
			big.NumSizable, sb.MemoryBytes(), small.NumSizable, ss.MemoryBytes())
	}
	before := sb.MemoryBytes()
	if _, err := sb.Resize(context.Background(), 0.6*minCP(t, big), Budgets{}); err != nil {
		t.Fatal(err)
	}
	if after := sb.MemoryBytes(); after != before {
		t.Fatalf("estimate moved across a query: %d -> %d", before, after)
	}
}
