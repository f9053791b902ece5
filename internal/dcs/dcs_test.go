package dcs

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"minflo/internal/mcmf"
)

func TestSingleTermSimple(t *testing.T) {
	// maximize r1 - r0, s.t. r1 - r0 <= 5, r0 pinned.
	s := NewSystem(2)
	s.AddConstraint(1, 0, 5)
	s.AddObjective(1, 0, 1)
	s.Pin(0)
	sol, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.R[0] != 0 {
		t.Fatalf("pinned r0 = %v", sol.R[0])
	}
	if math.Abs(sol.R[1]-5) > 1e-6 {
		t.Fatalf("r1 = %v, want 5", sol.R[1])
	}
	if math.Abs(sol.Objective-5) > 1e-6 {
		t.Fatalf("objective = %v, want 5", sol.Objective)
	}
}

func TestCompetingTerms(t *testing.T) {
	// Chain: r2-r1 <= 1, r1-r0 <= 2, r2-r0 <= 2 (tighter than 3).
	// maximize 1*(r2-r0): bound is min(2, 1+2)=2.
	s := NewSystem(3)
	s.AddConstraint(2, 1, 1)
	s.AddConstraint(1, 0, 2)
	s.AddConstraint(2, 0, 2)
	s.AddObjective(2, 0, 1)
	s.Pin(0)
	sol, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-2) > 1e-6 {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
}

func TestTradeoffWeighted(t *testing.T) {
	// Two terms share a budget: r1-r0 <= 4 and r2-r1 <= 0, r2-r0 <= 4.
	// maximize 3*(r1-r0) + 1*(r0-r2):
	// raising r1 to 4 earns 12; r2 >= ... r2 can go very negative? It is
	// constrained only by r2-... nothing bounds r0-r2, so term 2 is
	// unbounded unless we add r0-r2 <= 3. Expect 12 + 3.
	s := NewSystem(3)
	s.AddConstraint(1, 0, 4)
	s.AddConstraint(0, 2, 3)
	s.AddObjective(1, 0, 3)
	s.AddObjective(0, 2, 1)
	s.Pin(0)
	sol, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-15) > 1e-6 {
		t.Fatalf("objective = %v, want 15", sol.Objective)
	}
	if math.Abs(sol.R[1]-4) > 1e-6 || math.Abs(sol.R[2]+3) > 1e-6 {
		t.Fatalf("r = %v", sol.R)
	}
}

func TestUnboundedDetected(t *testing.T) {
	s := NewSystem(2)
	// No constraint bounds r1 from above.
	s.AddObjective(1, 0, 1)
	s.Pin(0)
	if _, err := s.Solve(Options{}); err != ErrUnbounded {
		t.Fatalf("want ErrUnbounded, got %v", err)
	}
}

func TestInfeasibleDetected(t *testing.T) {
	// r1 - r0 <= -1 and r0 - r1 <= -1: negative cycle.
	s := NewSystem(2)
	s.AddConstraint(1, 0, -1)
	s.AddConstraint(0, 1, -1)
	s.AddObjective(1, 0, 1)
	sol, err := s.Solve(Options{})
	if err != ErrInfeasible {
		t.Fatalf("want ErrInfeasible, got %v (sol=%v)", err, sol)
	}
}

func TestZeroObjective(t *testing.T) {
	s := NewSystem(2)
	s.AddConstraint(1, 0, 5)
	sol, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.R[0] != 0 || sol.R[1] != 0 {
		t.Fatalf("zero objective should return r = 0, got %v", sol.R)
	}
}

func TestFractionalWeightsFloored(t *testing.T) {
	// Constraint weight 2.7 with CostScale 10 floors to 2.7 -> 27/10.
	s := NewSystem(2)
	s.AddConstraint(1, 0, 2.7)
	s.AddObjective(1, 0, 1)
	s.Pin(0)
	sol, err := s.Solve(Options{CostScale: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sol.R[1] > 2.7+1e-9 {
		t.Fatalf("r1 = %v exceeds constraint", sol.R[1])
	}
	if sol.R[1] < 2.7-0.11 {
		t.Fatalf("r1 = %v lost more than one quantum", sol.R[1])
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	s := NewSystem(2)
	for _, f := range []func(){
		func() { s.AddConstraint(0, 5, 1) },
		func() { s.AddConstraint(0, 1, math.NaN()) },
		func() { s.AddObjective(0, 1, -2) },
		func() { s.AddObjective(9, 0, 1) },
		func() { s.Pin(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestReuseMatchesFresh drives the build-once/update-in-place path the
// D/W iteration uses: one System re-solved with updated weights and
// coefficients must agree with a fresh System built from the same data,
// and must build its flow network exactly once.
func TestReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 8
	type conSpec struct{ u, v int }
	type objSpec struct{ p, m int }
	var cs []conSpec
	var os []objSpec
	reused := NewSystem(n)
	reused.Pin(0)
	for v := 1; v < n; v++ {
		cs = append(cs, conSpec{v, 0}, conSpec{0, v})
	}
	for i := 0; i < 10; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			cs = append(cs, conSpec{u, v})
		}
	}
	for i := 0; i < 4; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			os = append(os, objSpec{u, v})
		}
	}
	conID := make([]int, len(cs))
	objID := make([]int, len(os))
	for i, c := range cs {
		conID[i] = reused.AddConstraint(c.u, c.v, 0)
	}
	for i, o := range os {
		objID[i] = reused.AddObjective(o.p, o.m, 0)
	}

	for iter := 0; iter < 25; iter++ {
		ws := make([]float64, len(cs))
		coeffs := make([]float64, len(os))
		for i := range ws {
			ws[i] = rng.Float64() * 8
		}
		for i := range coeffs {
			coeffs[i] = rng.Float64() * 3
		}
		for i, id := range conID {
			reused.SetWeight(id, ws[i])
		}
		for i, id := range objID {
			reused.SetObjectiveCoeff(id, coeffs[i])
		}

		fresh := NewSystem(n)
		fresh.Pin(0)
		for i, c := range cs {
			fresh.AddConstraint(c.u, c.v, ws[i])
		}
		for i, o := range os {
			fresh.AddObjective(o.p, o.m, coeffs[i])
		}

		got, gotErr := reused.Solve(Options{})
		want, wantErr := fresh.Solve(Options{})
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("iter %d: reused err %v, fresh err %v", iter, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if math.Abs(got.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
			t.Fatalf("iter %d: objective %v != fresh %v", iter, got.Objective, want.Objective)
		}
		// Optimal r need not be unique, but the reused system's r must
		// satisfy every constraint at the current weights.
		for i, c := range cs {
			if got.R[c.u]-got.R[c.v] > ws[i]+1e-9 {
				t.Fatalf("iter %d: reused r violates constraint %d: r(%d)-r(%d)=%v > %v",
					iter, i, c.u, c.v, got.R[c.u]-got.R[c.v], ws[i])
			}
		}
	}
	if b := reused.Builds(); b != 1 {
		t.Fatalf("reused system built the network %d times, want 1", b)
	}
}

// TestTopologyChangeRebuilds: adding a constraint after a Solve must
// invalidate the cached network.
func TestTopologyChangeRebuilds(t *testing.T) {
	s := NewSystem(3)
	s.Pin(0)
	s.AddConstraint(1, 0, 5)
	s.AddObjective(1, 0, 1)
	sol, err := s.Solve(Options{})
	if err != nil || math.Abs(sol.Objective-5) > 1e-6 {
		t.Fatalf("first solve: %v, %v", sol, err)
	}
	// New tighter constraint via a new variable path.
	s.AddConstraint(1, 2, 1)
	s.AddConstraint(2, 0, 2)
	sol, err = s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-3) > 1e-6 {
		t.Fatalf("objective after topology change = %v, want 3", sol.Objective)
	}
	if b := s.Builds(); b != 2 {
		t.Fatalf("builds = %d, want 2", b)
	}
}

// bruteForce maximizes the objective over integer lattice points in
// [-B, B]^n by exhaustive search (tiny n only).
func bruteForce(s *System, B int) (best float64, feasibleExists bool) {
	n := s.n
	r := make([]float64, n)
	best = math.Inf(-1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			for _, p := range s.pinned {
				if r[p] != 0 {
					return
				}
			}
			for _, c := range s.cons {
				if r[c.u]-r[c.v] > c.w+1e-9 {
					return
				}
			}
			feasibleExists = true
			obj := 0.0
			for _, t := range s.obj {
				obj += t.coeff * (r[t.plus] - r[t.minus])
			}
			if obj > best {
				best = obj
			}
			return
		}
		for v := -B; v <= B; v++ {
			r[i] = float64(v)
			rec(i + 1)
		}
	}
	rec(0)
	return best, feasibleExists
}

// Property: on random small integer systems, Solve matches brute force.
func TestQuickMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3) // 2..4 variables
		s := NewSystem(n)
		s.Pin(0)
		// Ensure bounded: box every variable within [-3, 3] of r0.
		for v := 1; v < n; v++ {
			s.AddConstraint(v, 0, 3)
			s.AddConstraint(0, v, 3)
		}
		for i := 0; i < rng.Intn(5); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			s.AddConstraint(u, v, float64(rng.Intn(7)-2))
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			s.AddObjective(u, v, float64(1+rng.Intn(4)))
		}
		want, feasible := bruteForce(s, 3)
		sol, err := s.Solve(Options{CostScale: 1, SupplyScale: 1})
		if !feasible {
			return err == ErrInfeasible
		}
		if err != nil {
			// Degenerate objective (all terms cancelled) is fine.
			return false
		}
		// Brute force is restricted to the [-3,3] lattice; the LP optimum
		// over integer weights is integral and attained at a lattice
		// point within the box constraints, so values must agree.
		return math.Abs(sol.Objective-want) < 1e-6
	}
	cfg := &quick.Config{MaxCount: 250}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: solutions always satisfy every constraint exactly (floored
// integerization guarantees real-unit feasibility).
func TestQuickAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		s := NewSystem(n)
		s.Pin(0)
		for v := 1; v < n; v++ {
			s.AddConstraint(v, 0, rng.Float64()*10)
			s.AddConstraint(0, v, rng.Float64()*10)
		}
		for i := 0; i < rng.Intn(8); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			s.AddConstraint(u, v, rng.Float64()*6)
		}
		for i := 0; i < 1+rng.Intn(4); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			s.AddObjective(u, v, rng.Float64()*3)
		}
		sol, err := s.Solve(Options{})
		if err != nil {
			return err == ErrInfeasible
		}
		for _, c := range s.cons {
			if sol.R[c.u]-sol.R[c.v] > c.w+1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 250}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalResolvePath asserts the delta-tracking Update path:
// re-solves on a cached network must go through mcmf's incremental
// ResolveChanged (not a from-scratch solve), whatever the deprecated,
// ignored Options.Engine says, and unchanged weights must produce an
// empty changed set (observable as a resolve that does no augmentation
// work).
func TestIncrementalResolvePath(t *testing.T) {
	for _, engine := range []string{"", "ssp", "dial"} {
		engine := engine
		t.Run("engine="+engine, func(t *testing.T) {
			s := NewSystem(4)
			s.Pin(0)
			w01 := s.AddConstraint(1, 0, 5)
			s.AddConstraint(0, 1, 5)
			s.AddConstraint(2, 1, 3)
			s.AddConstraint(1, 2, 3)
			s.AddConstraint(3, 2, 2)
			s.AddConstraint(2, 3, 2)
			s.AddObjective(1, 3, 1.5)
			s.AddObjective(3, 0, 0.5)
			opt := Options{Engine: engine}
			if _, err := s.Solve(opt); err != nil {
				t.Fatal(err)
			}
			base := s.FlowEngineStats()
			// Weight updates: the re-solve must run incrementally.
			s.SetWeight(w01, 4)
			sol, err := s.Solve(opt)
			if err != nil {
				t.Fatal(err)
			}
			st := s.FlowEngineStats()
			if st.Resolves != base.Resolves+1 {
				t.Fatalf("stats after weight update: %+v (base %+v), want one more resolve", st, base)
			}
			if st.Solves != base.Solves {
				t.Fatalf("weight update triggered a full solve: %+v", st)
			}
			if s.Builds() != 1 {
				t.Fatalf("network rebuilt: %d builds", s.Builds())
			}
			// Cross-check against a fresh system with the same data.
			f := NewSystem(4)
			f.Pin(0)
			f.AddConstraint(1, 0, 4)
			f.AddConstraint(0, 1, 5)
			f.AddConstraint(2, 1, 3)
			f.AddConstraint(1, 2, 3)
			f.AddConstraint(3, 2, 2)
			f.AddConstraint(2, 3, 2)
			f.AddObjective(1, 3, 1.5)
			f.AddObjective(3, 0, 0.5)
			want, err := f.Solve(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Objective != want.Objective {
				t.Fatalf("incremental objective %v != fresh %v", sol.Objective, want.Objective)
			}
			for v := range sol.R {
				if sol.R[v] != want.R[v] {
					t.Fatalf("r[%d]: incremental %v != fresh %v", v, sol.R[v], want.R[v])
				}
			}
			// No-op re-solve: nothing changed, still a (trivial) resolve.
			aug := s.FlowEngineStats().Augmentations
			if _, err := s.Solve(opt); err != nil {
				t.Fatal(err)
			}
			st = s.FlowEngineStats()
			if st.Resolves != base.Resolves+2 || st.Augmentations != aug {
				t.Fatalf("no-op re-solve: %+v (augmentations were %d), want trivial resolve", st, aug)
			}
		})
	}
}

// TestInfeasibleAfterWarmResolve pins the ErrInfeasible contract on
// the incremental path: a constraint system made infeasible *between*
// solves (the re-flow prices negative cycles away instead of
// detecting them) must still return the documented sentinel, via the
// clean-residual retry.
func TestInfeasibleAfterWarmResolve(t *testing.T) {
	s := NewSystem(2)
	s.Pin(0)
	w01 := s.AddConstraint(0, 1, 5)
	s.AddConstraint(1, 0, 5)
	s.AddObjective(0, 1, 1)
	if _, err := s.Solve(Options{}); err != nil {
		t.Fatal(err)
	}
	// r0 − r1 ≤ −6 together with r1 − r0 ≤ 5 is a negative cycle.
	s.SetWeight(w01, -6)
	_, err := s.Solve(Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("warm re-solve on infeasible system: err = %v, want ErrInfeasible", err)
	}
	// And a repaired system must solve again.
	s.SetWeight(w01, 5)
	if _, err := s.Solve(Options{}); err != nil {
		t.Fatalf("repaired system: %v", err)
	}
}

// TestRecoverCertificateFailureIsEngineFailure: a solved network whose
// strong-duality certificate no longer holds (one objective coefficient
// moved after the solve) fails recover with mcmf.ErrEngineFailed, the
// error class callers answer as a partial result and quarantine on.
func TestRecoverCertificateFailureIsEngineFailure(t *testing.T) {
	s := NewSystem(3)
	s.AddConstraint(1, 0, 5)
	s.AddConstraint(2, 1, 2)
	s.AddObjective(1, 0, 1)
	s.AddObjective(2, 0, 1)
	s.Pin(0)
	opt := Options{}.withDefaults()
	if _, err := s.Solve(opt); err != nil {
		t.Fatal(err)
	}
	if _, err := s.recover(s.flow, opt, s.n); err != nil {
		t.Fatalf("recover on the solved network: %v", err)
	}
	s.obj[0].coeff *= 2
	_, err := s.recover(s.flow, opt, s.n)
	if !errors.Is(err, mcmf.ErrEngineFailed) {
		t.Fatalf("recover after perturbing an objective coefficient: err = %v, want mcmf.ErrEngineFailed", err)
	}
}
