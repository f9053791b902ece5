package core

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"minflo/internal/fault"
	"minflo/internal/gen"
	"minflo/internal/sta"
)

// trOpt is the trust-region configuration the seed tests share: the
// 5% region the server defaults to.
func trOpt() Options {
	return Options{TrustRegion: 0.05}
}

// TestSessionTrustRegionReplay is the renegotiated determinism
// contract: with seeding on, a session's answers are a deterministic
// function of the query sequence — a serial twin replaying the same
// mix of small refinements, two far jumps (one looser, one tighter) and
// a jump back into a solved region (a library hit) answers
// bit-identically — while the seeded answers stay feasible and within
// 2e-2 relative area of a seeding-off session's answers.
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
		// The latency harness's small-refinement mix (a cold anchor then
		// targets within ±0.7% of it) with three jumps past δ: 0.598 →
		// 0.66 looser, 0.661 → 0.599 tighter and back within δ of the
		// 0.598 answer (a library hit, run as a refinement), and 0.6 →
		// 0.55 tighter into a region not solved before.
		targets := []float64{0.6, 0.602, 0.598, 0.66, 0.661, 0.599, 0.601, 0.6, 0.55, 0.552}
		far := map[int]bool{3: true, 8: true}
		lib := map[int]bool{5: true}
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
				rw.Iterations != rt.Iterations || rw.Seed != rt.Seed || rw.FarSeed != rt.FarSeed ||
				rw.LibrarySeed != rt.LibrarySeed {
				t.Fatalf("query %d (T=%g): seeded session diverged from replaying twin\nwarm: area %.17g seed %q iters %d\ntwin: area %.17g seed %q iters %d",
					qi, T, rw.Area, rw.Seed, rw.Iterations, rt.Area, rt.Seed, rt.Iterations)
			}
			wantSeed := SeedWarm
			if qi == 0 {
				wantSeed = SeedTilos
			}
			if rw.Seed != wantSeed || rw.FarSeed != far[qi] || rw.LibrarySeed != lib[qi] {
				t.Fatalf("query %d: Seed = %q FarSeed = %v LibrarySeed = %v, want %q %v %v",
					qi, rw.Seed, rw.FarSeed, rw.LibrarySeed, wantSeed, far[qi], lib[qi])
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

// TestSessionTrustRegionFallbackBeyondDelta: a target jump beyond δ no
// longer re-seeds from TILOS.  It starts from the previous answer on
// the far-jump schedule (FarSeed, no fallback) and meets the new
// target; a small move around the new anchor is a refinement again.
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
	if r1.Seed != SeedWarm || !r1.FarSeed || r1.SeedFallback {
		t.Fatalf("beyond-δ query: Seed = %q FarSeed = %v SeedFallback = %v, want a warm far jump with no fallback",
			r1.Seed, r1.FarSeed, r1.SeedFallback)
	}
	if r1.CP > 0.75*tmin*(1+1e-9) {
		t.Fatalf("far-jump answer CP %g violates target %g", r1.CP, 0.75*tmin)
	}
	if r0.SeedFallback || r0.FarSeed {
		t.Fatalf("first query marked SeedFallback/FarSeed")
	}
	// A small move around the NEW anchor is a refinement.
	r2, err := sess.Resize(context.Background(), 0.752*tmin, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Seed != SeedWarm || r2.FarSeed {
		t.Fatalf("near-anchor query Seed = %q FarSeed = %v, want a warm refinement", r2.Seed, r2.FarSeed)
	}
}

// farJumpAreaTol bounds a far-jump answer's area above a fresh cold
// Size at the same target, relative: coneAreaTol's precedent for two
// seeded-vs-cold trajectories of the same problem.
const farJumpAreaTol = 5e-3

// TestSessionFarJumpArea holds far jumps answered from the session's
// converged sizing to the quality of the TILOS restart they replace.
// A refine-style walk (small moves around the target, a jump of at
// least 8% every other query, tighter and looser alike) runs on mult8
// and c1908; every jump must be answered warm, meet its target under
// an independent STA and land within farJumpAreaTol of a fresh cold
// Size.  Three jumps run the far-jump schedule; the one to 0.62·Dmin
// lands within δ of the 0.648 answer and refines it from the library.
// The refinement endgame schedule run on the far jumps fails this on
// both circuits.
func TestSessionFarJumpArea(t *testing.T) {
	walk := []float64{0.65, 0.648, 0.58, 0.582, 0.70, 0.698, 0.62, 0.621, 0.74}
	const libHit = 6
	for _, name := range []string{"mult8", "c1908"} {
		t.Run(name, func(t *testing.T) {
			p := mustProblem(t, name)
			tmin := minCP(t, p)
			sess, err := NewSession(p, trOpt())
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			jumps := 0
			for qi, f := range walk {
				T := f * tmin
				prev := sess.seedT
				r, err := sess.Resize(context.Background(), T, Budgets{})
				if err != nil {
					t.Fatalf("query %d (%.3f·Dmin): %v", qi, f, err)
				}
				jump := qi > 0 && math.Abs(T-prev) > 0.05*prev
				far := jump && qi != libHit
				if qi > 0 && (r.Seed != SeedWarm || r.FarSeed != far || r.LibrarySeed != (qi == libHit) || r.SeedFallback) {
					t.Fatalf("query %d (%.3f·Dmin): Seed = %q FarSeed = %v LibrarySeed = %v SeedFallback = %v, want warm FarSeed = %v",
						qi, f, r.Seed, r.FarSeed, r.LibrarySeed, r.SeedFallback, far)
				}
				if !jump {
					continue
				}
				jumps++
				tm, err := sta.Analyze(p.G, p.Delays(r.X))
				if err != nil {
					t.Fatal(err)
				}
				if tm.CP > T*(1+1e-9) || tm.CP != r.CP {
					t.Fatalf("jump to %.3f·Dmin: independent STA CP %.17g (reported %.17g), target %.17g",
						f, tm.CP, r.CP, T)
				}
				cold, err := Size(p, T, Options{})
				if err != nil {
					t.Fatal(err)
				}
				rel := (r.Area - cold.Area) / cold.Area
				t.Logf("jump to %.3f·Dmin: area %+.2e vs cold, %d iterations (cold %d)", f, rel, r.Iterations, cold.Iterations)
				if rel > farJumpAreaTol {
					t.Fatalf("jump to %.3f·Dmin: area %.17g vs cold %.17g (rel %+g) beyond %g",
						f, r.Area, cold.Area, rel, farJumpAreaTol)
				}
			}
			if jumps != 4 {
				t.Fatalf("walk made %d far jumps, want 4", jumps)
			}
		})
	}
}

// refineWalk is a target walk shaped like minflobench's serve_refine
// clients: from 0.65·Dmin, relative steps within ±1% reflected into
// [0.55, 0.75]·Dmin, and every tenth query a jump of at least 8% into
// the next of ten equal strata of that range.  Targets are fractions
// of Dmin, the anchor first.
func refineWalk(seed int64, n int) []float64 {
	const lo, hi = 0.55, 0.75
	strata := [...]int{0, 5, 2, 7, 4, 9, 1, 6, 3, 8}
	rng := rand.New(rand.NewSource(seed))
	f := (lo + hi) / 2
	walk := []float64{f}
	next := 0
	for k := 1; k < n; k++ {
		if k%10 == 0 {
			for {
				g := lo + (float64(strata[next%len(strata)])+rng.Float64())*(hi-lo)/float64(len(strata))
				next++
				if math.Abs(g-f)/f >= 0.08 {
					f = g
					break
				}
			}
		} else {
			f *= 1 + 0.01*(2*rng.Float64()-1)
			if f < lo {
				f = 2*lo - f
			}
			if f > hi {
				f = 2*hi - f
			}
		}
		walk = append(walk, f)
	}
	return walk
}

// Refinement answers drift above a cold Size as a walk goes on: each
// starts from the last answer and only walks a small window.  On
// 30-query serve_refine-shaped walks (seeds 1–3) c1908's worst answer
// sat 4.2e-3 to 7.4e-3 above cold under both the current schedule and
// an opening at 8× the move, so farJumpAreaTol (5e-3) does not bound a
// refinement; refineAreaTol bounds each answer and refineDriftTol the
// walk's mean (measured at most 1.7e-3).
const (
	refineAreaTol  = 1e-2
	refineDriftTol = 2.5e-3
)

// TestSessionRefineSchedule pins the refinement schedule (the window
// opens at 4× the relative move, floored at 2·Window/32, and holds once
// after a first-step gain) on a serve_refine-shaped walk: every answer
// meets T under an independent STA and lands within refineAreaTol of a
// fresh cold Size, the walk's mean within refineDriftTol, and the
// refinements' mean iteration count stays below a bound set between
// the measured walk (3.59 on mult8, 3.19 on c1908) and an opening at
// 8× the move, floored at 4·Window/32 (3.93 on both).
func TestSessionRefineSchedule(t *testing.T) {
	const queries = 30
	for _, c := range []struct {
		name     string
		maxIters float64 // mean refinement iterations
	}{
		{"mult8", 3.75},
		{"c1908", 3.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := mustProblem(t, c.name)
			tmin := minCP(t, p)
			sess, err := NewSession(p, trOpt())
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			refines, iters, drift := 0, 0, 0.0
			for qi, f := range refineWalk(1, queries) {
				T := f * tmin
				r, err := sess.Resize(context.Background(), T, Budgets{})
				if err != nil {
					t.Fatalf("query %d (%.4f·Dmin): %v", qi, f, err)
				}
				if qi > 0 && (r.Seed != SeedWarm || r.SeedFallback) {
					t.Fatalf("query %d (%.4f·Dmin): Seed = %q SeedFallback = %v, want a warm answer", qi, f, r.Seed, r.SeedFallback)
				}
				if r.Seed == SeedWarm && !r.FarSeed && !r.LibrarySeed {
					refines++
					iters += r.Iterations
				}
				tm, err := sta.Analyze(p.G, p.Delays(r.X))
				if err != nil {
					t.Fatal(err)
				}
				if tm.CP > T*(1+1e-9) || tm.CP != r.CP {
					t.Fatalf("query %d (%.4f·Dmin): independent STA CP %.17g (reported %.17g), target %.17g",
						qi, f, tm.CP, r.CP, T)
				}
				cold, err := Size(p, T, Options{})
				if err != nil {
					t.Fatal(err)
				}
				rel := (r.Area - cold.Area) / cold.Area
				if rel > refineAreaTol {
					t.Fatalf("query %d (%.4f·Dmin): area %.17g vs cold %.17g (rel %+g) beyond %g",
						qi, f, r.Area, cold.Area, rel, refineAreaTol)
				}
				drift += rel / queries
			}
			mean := float64(iters) / float64(refines)
			t.Logf("%d refinements, %.3f iterations on average; area %+.2e above cold on average", refines, mean, drift)
			if drift > refineDriftTol {
				t.Fatalf("answers average %+.2e above cold, beyond %g", drift, refineDriftTol)
			}
			if mean > c.maxIters {
				t.Fatalf("refinements average %.3f iterations, want at most %g", mean, c.maxIters)
			}
		})
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

// TestSessionTrustRegionSeedFallback drives the cold fallback of a
// seeded attempt: a fault-injected error at the first flow poll of
// every attempt fails the first seeded iteration of a refinement and of
// a far jump, so each abandons its seed and the cold path answers
// (SeedFallback set, FarSeed on the far jump only) within the target.
// The cold path's own iterations fail the same way, so it answers with
// its TILOS sizing.  That clean answer becomes the seed, and the next
// clean query near it seeds warm again.
func TestSessionTrustRegionSeedFallback(t *testing.T) {
	for _, c := range []struct {
		name string
		f    float64 // target of the failed query, fraction of Dmin
		far  bool
	}{
		{"refine", 0.601, false},
		{"far", 0.7, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			sess, err := NewSession(mustProblem(t, "adder16"), trOpt())
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			tmin := minCP(t, sess.p)

			if _, err := sess.Resize(context.Background(), 0.6*tmin, Budgets{}); err != nil {
				t.Fatal(err)
			}
			T := c.f * tmin
			ctx := fault.Context(context.Background(), fault.Plan{Mode: fault.Error, Op: 1})
			r, err := sess.Resize(ctx, T, Budgets{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Seed != SeedTilos || !r.SeedFallback || r.FarSeed != c.far {
				t.Fatalf("failed seeded query: Seed = %q SeedFallback = %v FarSeed = %v, want a TILOS fallback with FarSeed %v",
					r.Seed, r.SeedFallback, r.FarSeed, c.far)
			}
			if r.CP > T*(1+1e-9) {
				t.Fatalf("fallback answer CP %g violates target %g", r.CP, T)
			}
			r2, err := sess.Resize(context.Background(), 1.001*T, Budgets{})
			if err != nil {
				t.Fatal(err)
			}
			if r2.Seed != SeedWarm || r2.SeedFallback || r2.FarSeed {
				t.Fatalf("next clean query: Seed = %q SeedFallback = %v FarSeed = %v, want a warm refinement",
					r2.Seed, r2.SeedFallback, r2.FarSeed)
			}
		})
	}
}

// TestRefinementIterationBound holds the invariant that lets a
// refinement run under MaxIters alone: its window opens at most at
// Options.Window, holds at most once (after a gain on iteration 1) and
// otherwise halves, so it drops below Window/minWindowDiv — the stop —
// by iteration 2 + log2(minWindowDiv).  Every iteration of a
// refinement, a library hit and a cone sub-solve must respect it, on
// serve_refine-shaped target walks (mult8, c1908) and on
// serve_eco-shaped walks of one load edit before each query at
// 0.6·Dmin (c7552 with cone re-sizing).
func TestRefinementIterationBound(t *testing.T) {
	bound := 2 + bits.Len(uint(minWindowDiv)) - 1
	var iters []IterStats
	opt := trOpt()
	opt.OnIteration = func(st IterStats) { iters = append(iters, st) }
	paths, worst := map[string]int{}, 0
	// check runs one query and holds every seeded iteration of a
	// non-far attempt to the bound.  A far jump's iterations (its
	// own or those of the cold answer it fell back to) are exempt.
	check := func(t *testing.T, sess *Session, T float64) {
		t.Helper()
		iters = iters[:0]
		r, err := sess.Resize(context.Background(), T, Budgets{})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case r.Seed == SeedCone:
			paths["cone"]++
		case r.Seed == SeedWarm && r.LibrarySeed:
			paths["lib"]++
		case r.Seed == SeedWarm && !r.FarSeed:
			paths["refine"]++
		}
		for _, st := range iters {
			if st.Seed == SeedTilos || r.FarSeed {
				continue
			}
			if st.Iter > bound {
				t.Fatalf("target %g: %s answer ran a seeded iteration %d, beyond %d", T, r.Seed, st.Iter, bound)
			}
			worst = max(worst, st.Iter)
		}
	}
	for _, name := range []string{"mult8", "c1908"} {
		t.Run("refine/"+name, func(t *testing.T) {
			p := mustProblem(t, name)
			tmin := minCP(t, p)
			sess, err := NewSession(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			for _, f := range refineWalk(1, 60) {
				check(t, sess, f*tmin)
			}
		})
	}
	t.Run("eco/c7552", func(t *testing.T) {
		c := gen.C7552()
		eopt := opt
		eopt.EditConeResize = true
		sess, err := NewEcoSession(mustEco(t, c), eopt)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		T := 0.6 * minCP(t, sess.p)
		check(t, sess, T)
		rng := rand.New(rand.NewSource(1))
		for q := 0; q < 30; q++ {
			if _, err := sess.ApplyEdits(valueOnlyBatch(c, rng)[:1]); err != nil {
				t.Fatal(err)
			}
			check(t, sess, T)
		}
	})
	t.Logf("answers checked per path: %v; deepest iteration %d of %d", paths, worst, bound)
	for _, path := range []string{"refine", "lib", "cone"} {
		if paths[path] == 0 {
			t.Fatalf("no %s answer on the walks (%v): the bound went unchecked there", path, paths)
		}
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
