// SizeCtx abort semantics: cancellation and budgets return the
// best-so-far sizing tagged Partial together with the typed error, and
// an aborted run leaves no residue — re-running on the same problem is
// bit-identical to a run on a never-touched twin.
package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/sta"
	"minflo/internal/tech"
)

// cancelProblem builds the standard abort-test workload and a target
// that forces a multi-iteration optimization.
func cancelProblem(t *testing.T) (*dag.Problem, float64) {
	t.Helper()
	m := delay.NewModel(tech.Default013())
	p, err := dag.GateLevel(gen.C432(), m)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		t.Fatal(err)
	}
	return p, 0.5 * tm.CP
}

func TestSizeCtxCancelBetweenIterations(t *testing.T) {
	p, T := cancelProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{}
	opt.OnIteration = func(st IterStats) {
		if st.Iter == 2 {
			cancel()
		}
	}
	res, err := SizeCtx(ctx, p, T, opt)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("SizeCtx = %v, want ErrCanceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("want a partial result, got %+v", res)
	}
	if res.Iterations < 2 {
		t.Fatalf("want ≥2 completed iterations before the cancel, got %d", res.Iterations)
	}
	// The partial answer must be a real answer: feasible at the target.
	if res.CP > T*(1+1e-9) {
		t.Fatalf("partial result infeasible: CP %g > %g", res.CP, T)
	}
	if res.Area > res.TilosArea*(1+1e-9) {
		t.Fatalf("partial result worse than its own TILOS seed: %g > %g", res.Area, res.TilosArea)
	}
}

func TestSizeCtxPreCanceled(t *testing.T) {
	p, T := cancelProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SizeCtx(ctx, p, T, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("SizeCtx = %v, want ErrCanceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("want the TILOS seed as a partial result, got %+v", res)
	}
	if res.Iterations != 0 {
		t.Fatalf("no iteration should have run, got %d", res.Iterations)
	}
	if res.Area != res.TilosArea || res.CP != res.TilosCP {
		t.Fatalf("pre-cancel partial should be the TILOS seed: area %g vs %g, CP %g vs %g",
			res.Area, res.TilosArea, res.CP, res.TilosCP)
	}
}

func TestSizeCtxWallClockBudget(t *testing.T) {
	p, T := cancelProblem(t)
	opt := Options{}
	opt.Budget = time.Nanosecond // expires during/right after the seed
	res, err := SizeCtx(context.Background(), p, T, opt)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("SizeCtx = %v, want ErrBudgetExhausted", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("want a partial result, got %+v", res)
	}
	if res.CP > T*(1+1e-9) {
		t.Fatalf("partial result infeasible: CP %g > %g", res.CP, T)
	}
}

func TestSizeCtxFlowWorkBudget(t *testing.T) {
	p, T := cancelProblem(t)
	opt := Options{}
	opt.FlowWorkBudget = 1 // the first D-phase augmentation exhausts it
	res, err := SizeCtx(context.Background(), p, T, opt)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("SizeCtx = %v, want ErrBudgetExhausted", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("want a partial result, got %+v", res)
	}
	if res.Iterations != 0 {
		t.Fatalf("no full iteration can fit in one flow operation, got %d", res.Iterations)
	}
	if res.CP > T*(1+1e-9) {
		t.Fatalf("partial (TILOS) result infeasible: CP %g > %g", res.CP, T)
	}
}

// TestSizeCtxNoResidueAfterCancel: an aborted optimization leaves the
// problem reusable — a fresh uncanceled Size on the same problem is
// bit-identical to a run on a never-touched twin problem.
func TestSizeCtxNoResidueAfterCancel(t *testing.T) {
	p, T := cancelProblem(t)
	twin, _ := cancelProblem(t)
	want, err := Size(twin, T, Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{}
	opt.OnIteration = func(st IterStats) {
		if st.Iter == 1 {
			cancel()
		}
	}
	if _, err := SizeCtx(ctx, p, T, opt); !errors.Is(err, ErrCanceled) {
		t.Fatalf("SizeCtx = %v, want ErrCanceled", err)
	}

	got, err := Size(p, T, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Area != want.Area || got.CP != want.CP || got.Iterations != want.Iterations {
		t.Fatalf("post-cancel run diverged: area %g vs %g, CP %g vs %g, iters %d vs %d",
			got.Area, want.Area, got.CP, want.CP, got.Iterations, want.Iterations)
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("post-cancel run diverged at x[%d]: %g vs %g", i, got.X[i], want.X[i])
		}
	}
}

// TestSizeHealthyRunReportsNoFailures: an undisturbed run answers in
// full — no error, not Partial, at least one D/W iteration.
func TestSizeHealthyRunReportsNoFailures(t *testing.T) {
	p, T := cancelProblem(t)
	res, err := Size(p, T, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("healthy run marked Partial")
	}
	if res.Iterations == 0 || len(res.Stats) != res.Iterations {
		t.Fatalf("healthy run: %d iterations, %d stats rows", res.Iterations, len(res.Stats))
	}
}

// TestIterateCancelInTimingPass: a cancel that lands in the iteration's
// timing pass surfaces as ErrCanceled, the abort taxonomy every caller
// maps to a partial answer, not as the timing layer's bare context
// error.
func TestIterateCancelInTimingPass(t *testing.T) {
	p, T := cancelProblem(t)
	sess, err := NewSession(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess.sc.ctx = ctx
	_, err = iterate(p, sess.aug, sess.sc, p.InitialSizes(), T, sess.opt.Window, sess.opt)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("iterate under a canceled context = %v, want ErrCanceled", err)
	}
}
