package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"minflo/internal/fault"
)

// trOpt is the trust-region configuration the seed tests share: the
// 5% region the server defaults to.
func trOpt() Options {
	return Options{TrustRegion: 0.05}
}

// TestSessionTrustRegionReplay is the renegotiated determinism
// contract: with seeding on, a session's answers are a deterministic
// function of the query sequence — a serial twin replaying the same
// small-refinement mix answers bit-identically — while the seeded
// answers stay feasible and within 2e-2 relative area of a
// seeding-off session's answers.
func TestSessionTrustRegionReplay(t *testing.T) {
	const engine = "ssp"
	t.Run(engine, func(t *testing.T) {
		warm, err := NewSession(mustProblem(t, "adder16"), trOpt())
		if err != nil {
			t.Fatal(err)
		}
		defer warm.Close()
		twin, err := NewSession(mustProblem(t, "adder16"), trOpt())
		if err != nil {
			t.Fatal(err)
		}
		defer twin.Close()
		off, err := NewSession(mustProblem(t, "adder16"),
			Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer off.Close()

		tmin := minCP(t, warm.p)
		// The latency harness's small-refinement mix: a cold anchor
		// then targets within ±0.7% of it.
		targets := []float64{0.6, 0.602, 0.598, 0.601, 0.599, 0.6}
		seeded, fallbacks := 0, 0
		for qi, f := range targets {
			T := f * tmin
			rw, err := warm.Resize(context.Background(), T, Budgets{})
			if err != nil {
				t.Fatalf("query %d: %v", qi, err)
			}
			rt, err := twin.Resize(context.Background(), T, Budgets{})
			if err != nil {
				t.Fatalf("twin query %d: %v", qi, err)
			}
			if !bitEqual(rw.X, rt.X) || rw.Area != rt.Area || rw.CP != rt.CP ||
				rw.Iterations != rt.Iterations || rw.Seed != rt.Seed {
				t.Fatalf("query %d (T=%g): seeded session diverged from replaying twin\nwarm: area %.17g seed %q iters %d\ntwin: area %.17g seed %q iters %d",
					qi, T, rw.Area, rw.Seed, rw.Iterations, rt.Area, rt.Seed, rt.Iterations)
			}
			wantSeed := SeedWarm
			if qi == 0 {
				wantSeed = SeedTilos
			}
			if rw.Seed != wantSeed {
				t.Fatalf("query %d: Seed = %q, want %q", qi, rw.Seed, wantSeed)
			}
			if rw.Seed == SeedWarm {
				seeded++
			}
			if rw.SeedFallback {
				fallbacks++
			}
			if rw.CP > T*(1+1e-9) {
				t.Fatalf("query %d: seeded CP %g violates target %g", qi, rw.CP, T)
			}
			ro, err := off.Resize(context.Background(), T, Budgets{})
			if err != nil {
				t.Fatalf("seeding-off query %d: %v", qi, err)
			}
			if rel := math.Abs(rw.Area-ro.Area) / ro.Area; rel > 2e-2 {
				t.Fatalf("query %d: seeded area %.17g vs cold-path %.17g (rel %g) beyond tolerance",
					qi, rw.Area, ro.Area, rel)
			}
		}
		if want := len(targets) - 1; seeded != want {
			t.Fatalf("seeded answers = %d, want %d", seeded, want)
		}
		if fallbacks != 0 {
			t.Fatalf("seed fallbacks = %d, want 0", fallbacks)
		}
		// Seed provenance threads into the per-iteration stats too.
		last := warm // any clean seeded result: re-run the final target
		rw, err := last.Resize(context.Background(), targets[len(targets)-1]*tmin, Budgets{})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range rw.Stats {
			if st.Seed != SeedWarm {
				t.Fatalf("iteration %d: Seed = %q, want %q", st.Iter, st.Seed, SeedWarm)
			}
		}
	})
}

// TestSessionTrustRegionFallbackBeyondDelta: a target jump beyond δ
// re-seeds from TILOS (no fallback counted — the policy never armed),
// and the session recovers warm seeding around the new anchor.
func TestSessionTrustRegionFallbackBeyondDelta(t *testing.T) {
	sess, err := NewSession(mustProblem(t, "adder16"), trOpt())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tmin := minCP(t, sess.p)

	r0, err := sess.Resize(context.Background(), 0.6*tmin, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if r0.Seed != SeedTilos {
		t.Fatalf("first query Seed = %q, want %q", r0.Seed, SeedTilos)
	}
	// 0.6 → 0.75 is a 25% move: far outside δ=5%.
	r1, err := sess.Resize(context.Background(), 0.75*tmin, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seed != SeedTilos || r1.SeedFallback {
		t.Fatalf("beyond-δ query: Seed = %q SeedFallback = %v, want cold with no fallback",
			r1.Seed, r1.SeedFallback)
	}
	if r0.SeedFallback {
		t.Fatalf("first query marked SeedFallback")
	}
	// A small move around the NEW anchor seeds warm.
	r2, err := sess.Resize(context.Background(), 0.752*tmin, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Seed != SeedWarm {
		t.Fatalf("near-anchor query Seed = %q, want %q", r2.Seed, SeedWarm)
	}
}

// TestSessionTrustRegionFallbackOnWeightEdit: an area-weight edit
// beyond δ invalidates the seed for the next Resize; the clean answer
// that follows re-arms seeding (perturbation resets per clean answer).
func TestSessionTrustRegionFallbackOnWeightEdit(t *testing.T) {
	sess, err := NewSession(mustProblem(t, "adder16"), trOpt())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tmin := minCP(t, sess.p)
	T := 0.6 * tmin

	if _, err := sess.Resize(context.Background(), T, Budgets{}); err != nil {
		t.Fatal(err)
	}
	// 50% weight perturbation: the previous optimum is stale.
	if err := sess.SetAreaWeight(0, 1.5*sess.AreaWeight(0)); err != nil {
		t.Fatal(err)
	}
	r1, err := sess.Resize(context.Background(), T, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seed != SeedTilos {
		t.Fatalf("post-edit query Seed = %q, want %q", r1.Seed, SeedTilos)
	}
	// The clean answer above reset the perturbation tracker; a small
	// (within-δ) edit does not break seeding.
	if err := sess.SetAreaWeight(0, 1.01*sess.AreaWeight(0)); err != nil {
		t.Fatal(err)
	}
	r2, err := sess.Resize(context.Background(), T, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Seed != SeedWarm {
		t.Fatalf("within-δ edit query Seed = %q, want %q", r2.Seed, SeedWarm)
	}
}

// TestSessionTrustRegionBlowoutFallback drives the EWMA gate
// white-box: with the session's EWMA forced tiny (and the floor
// lowered), a seeded attempt trips the 3×-EWMA iteration cap, is
// abandoned, and the cold path answers with SeedFallback set.
func TestSessionTrustRegionBlowoutFallback(t *testing.T) {
	oldFloor := seedIterFloor
	seedIterFloor = 1
	defer func() { seedIterFloor = oldFloor }()

	sess, err := NewSession(mustProblem(t, "adder16"), trOpt())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tmin := minCP(t, sess.p)

	if _, err := sess.Resize(context.Background(), 0.6*tmin, Budgets{}); err != nil {
		t.Fatal(err)
	}
	// Pretend the session's runs converge in a fraction of an
	// iteration: cap = max(floor, ceil(3·0.1)) = 1, which no real D/W
	// run satisfies, so the seeded attempt must blow out.
	sess.ewmaIters = 0.1
	r, err := sess.Resize(context.Background(), 0.601*tmin, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seed != SeedTilos || !r.SeedFallback {
		t.Fatalf("blowout query: Seed = %q SeedFallback = %v, want TILOS fallback", r.Seed, r.SeedFallback)
	}
	if r.CP > 0.601*tmin*(1+1e-9) {
		t.Fatalf("fallback answer CP %g violates target", r.CP)
	}
	// The fallback's clean answer re-anchors the EWMA; the next small
	// move seeds warm again (real iteration counts pass their own gate).
	r2, err := sess.Resize(context.Background(), 0.602*tmin, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Seed != SeedWarm || r2.SeedFallback {
		t.Fatalf("post-blowout query: Seed = %q SeedFallback = %v, want clean warm seed", r2.Seed, r2.SeedFallback)
	}
}

// TestSessionTrustRegionAbortedSeedReusable: a seeded resize canceled
// mid-flow (a fault-injected cancel at a deterministic operation) answers
// partial, does NOT update the seed state, and leaves the session
// reusable — a twin replaying the same sequence (including the same
// injected cancel) answers every query bit-identically.
func TestSessionTrustRegionAbortedSeedReusable(t *testing.T) {
	run := func(t *testing.T, label string) (r0, r1, r2 *Result) {
		sess, err := NewSession(mustProblem(t, "adder16"), trOpt())
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		tmin := minCP(t, sess.p)

		r0, err = sess.Resize(context.Background(), 0.6*tmin, Budgets{})
		if err != nil {
			t.Fatalf("%s anchor: %v", label, err)
		}

		// Cancel at the 5th abort-funnel operation of the seeded
		// attempt's first D-phase — deterministic, so the twin's
		// injection lands on the same operation.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		plan := fault.Plan{Mode: fault.Cancel, Op: 5, OnCancel: cancel}
		r1, err = sess.Resize(fault.Context(ctx, plan), 0.601*tmin, Budgets{})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s injected cancel: err = %v, want ErrCanceled", label, err)
		}
		if r1 == nil || !r1.Partial || r1.Seed != SeedWarm {
			t.Fatalf("%s injected cancel: partial seeded best-so-far missing (r=%+v)", label, r1)
		}

		// The aborted attempt must not have become the seed: the retry
		// still seeds from query 0's answer and completes cleanly.
		if sess.seedT != 0.6*tmin {
			t.Fatalf("%s: aborted resize updated seedT to %g", label, sess.seedT)
		}
		r2, err = sess.Resize(context.Background(), 0.601*tmin, Budgets{})
		if err != nil {
			t.Fatalf("%s retry after cancel: %v", label, err)
		}
		if r2.Seed != SeedWarm {
			t.Fatalf("%s retry Seed = %q, want %q", label, r2.Seed, SeedWarm)
		}
		return r0, r1, r2
	}

	a0, a1, a2 := run(t, "session")
	b0, b1, b2 := run(t, "twin")
	if !bitEqual(a0.X, b0.X) || !bitEqual(a1.X, b1.X) || !bitEqual(a2.X, b2.X) {
		t.Fatal("twin replaying the aborted-seed sequence diverged")
	}
	if a2.Area != b2.Area || a2.CP != b2.CP || a2.Iterations != b2.Iterations {
		t.Fatalf("post-abort answers differ: area %.17g/%.17g cp %.17g/%.17g",
			a2.Area, b2.Area, a2.CP, b2.CP)
	}
}
