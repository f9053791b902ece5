package mcmf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCostScalingTrivial(t *testing.T) {
	s := New(2)
	s.SetSupply(0, 3)
	s.SetSupply(1, -3)
	a := s.AddArc(0, 1, 10, 7)
	cost, err := s.SolveCostScaling()
	if err != nil {
		t.Fatal(err)
	}
	if cost != 21 {
		t.Fatalf("cost = %v, want 21", cost)
	}
	if s.Flow(a) != 3 {
		t.Fatalf("flow = %d", s.Flow(a))
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCostScalingChoosesCheaperPath(t *testing.T) {
	s := New(3)
	s.SetSupply(0, 4)
	s.SetSupply(1, -4)
	s.AddArc(0, 1, 10, 10)
	s.AddArc(0, 2, 10, 2)
	s.AddArc(2, 1, 10, 3)
	cost, err := s.SolveCostScaling()
	if err != nil {
		t.Fatal(err)
	}
	if cost != 20 {
		t.Fatalf("cost = %v, want 20", cost)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCostScalingInfeasible(t *testing.T) {
	s := New(2)
	s.SetSupply(0, 10)
	s.SetSupply(1, -10)
	s.AddArc(0, 1, 3, 1)
	if _, err := s.SolveCostScaling(); err != ErrInfeasible {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestCostScalingUnbalanced(t *testing.T) {
	s := New(2)
	s.SetSupply(0, 5)
	if _, err := s.SolveCostScaling(); err != ErrUnbalanced {
		t.Fatalf("want ErrUnbalanced, got %v", err)
	}
}

func TestCostScalingNegativeArc(t *testing.T) {
	s := New(3)
	s.SetSupply(0, 2)
	s.SetSupply(2, -2)
	s.AddArc(0, 1, 5, -4)
	s.AddArc(1, 2, 5, 1)
	cost, err := s.SolveCostScaling()
	if err != nil {
		t.Fatal(err)
	}
	if cost != -6 {
		t.Fatalf("cost = %v, want -6", cost)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Property: both engines find the same optimal cost on random feasible
// instances (SSP refuses negative cycles; skip those).
func TestQuickEnginesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		m := 1 + rng.Intn(14)
		build := func() *Solver {
			rr := rand.New(rand.NewSource(seed))
			_ = rr
			s := New(n)
			r2 := rand.New(rand.NewSource(seed + 1))
			for i := 0; i < m; i++ {
				u, v := r2.Intn(n), r2.Intn(n)
				if u == v {
					continue
				}
				s.AddArc(u, v, int64(r2.Intn(9)), int64(r2.Intn(15)-3))
			}
			for k := 0; k < 2; k++ {
				a, b := r2.Intn(n), r2.Intn(n)
				if a != b {
					amt := int64(r2.Intn(4))
					s.AddSupply(a, amt)
					s.AddSupply(b, -amt)
				}
			}
			return s
		}
		s1 := build()
		c1, err1 := s1.Solve()
		s2 := build()
		c2, err2 := s2.SolveCostScaling()
		if err1 == ErrNegativeCycle {
			// SSP refuses; cost-scaling may legitimately solve it.
			return true
		}
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		if err := s2.Verify(); err != nil {
			return false
		}
		return c1 == c2
	}
	cfg := &quick.Config{MaxCount: 400}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestScalingResolveIncremental pins that the scaling engine's
// incremental path actually engages on D-phase-shaped rounds (small
// cost-delta batches must be served by Resolves, not full fallbacks)
// and repairs to the exact fresh optimum.
func TestScalingResolveIncremental(t *testing.T) {
	t.Run("costscaling", func(t *testing.T) {
		s := NewGridInstance(12, 10, 5)
		if err := s.SetEngine("costscaling"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		for round := 0; round < 6; round++ {
			changed := make([]int32, 0, 4)
			for k := 0; k < 4; k++ {
				id := rng.Intn(s.NumArcs())
				s.SetCost(id, int64(rng.Intn(1000)))
				changed = append(changed, int32(id))
			}
			got, err := s.ResolveChanged(changed)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			want, err := freshTwin(s).Solve()
			if err != nil {
				t.Fatalf("round %d: fresh: %v", round, err)
			}
			if got != want {
				t.Fatalf("round %d: resolve cost %v != fresh %v", round, got, want)
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("round %d: certificate: %v", round, err)
			}
		}
		st := s.EngineStats()
		if st.Resolves == 0 {
			t.Fatalf("no incremental resolves engaged: %+v", st)
		}
	})
}

// TestScalingPriceRange pins the overflow guard: an instance whose
// cost magnitude leaves no headroom for the α-scaled costs must be
// refused with ErrPriceRange by the scaling engine (instead of
// silently wrapping int64), while the SSP family still solves it.
func TestScalingPriceRange(t *testing.T) {
	build := func() *Solver {
		s := New(3)
		s.AddArc(0, 1, 10, int64(inf)/2) // α = 4 here, so α·cost overflows the inf budget
		s.AddArc(1, 2, 10, 1)
		s.SetSupply(0, 2)
		s.SetSupply(2, -2)
		return s
	}
	s := build()
	if err := s.SetEngine("costscaling"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != ErrPriceRange {
		t.Fatalf("costscaling on megacost instance: err=%v, want ErrPriceRange", err)
	}
	ref := build() // default ssp handles it
	if _, err := ref.Solve(); err != nil {
		t.Fatalf("ssp on megacost instance: %v", err)
	}
	if err := ref.Verify(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFlowEngines (the engine comparison this file's doc comment
// promises) lives in equivalence_test.go next to the equivalence gate,
// sharing the NewGridInstance workload with BenchmarkMCMF.
