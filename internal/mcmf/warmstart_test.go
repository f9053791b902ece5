package mcmf

import (
	"math/rand"
	"slices"
	"testing"
)

// TestResetResolveIdentical: Reset restores the unsolved state, so an
// untouched instance re-solves to the identical cost and flows.
func TestResetResolveIdentical(t *testing.T) {
	s := NewGridInstance(15, 10, 5)
	cost1, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]int64, s.NumArcs())
	for id := range flows {
		flows[id] = s.Flow(id)
	}
	s.Reset()
	cost2, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if cost1 != cost2 {
		t.Fatalf("re-solve cost %v != %v", cost2, cost1)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	for id := range flows {
		if got := s.Flow(id); got != flows[id] {
			t.Fatalf("arc %d flow %d != %d after deterministic re-solve", id, got, flows[id])
		}
	}
}

// TestResolveWithoutReset: Solve must clear the previous solve's flow
// by itself — mutate-and-solve-again without an explicit Reset is the
// documented warm-start pattern and must not double-route supplies.
func TestResolveWithoutReset(t *testing.T) {
	s := New(2)
	s.SetSupply(0, 1)
	s.SetSupply(1, -1)
	id := s.AddArc(0, 1, 10, 3)
	cost, err := s.Solve()
	if err != nil || cost != 3 {
		t.Fatalf("first solve: cost=%v err=%v", cost, err)
	}
	s.SetCost(id, 5)
	cost, err = s.Solve() // no Reset on purpose
	if err != nil {
		t.Fatal(err)
	}
	if cost != 5 {
		t.Fatalf("re-solve cost = %v, want 5 (stale flow not cleared?)", cost)
	}
	if got := s.Flow(id); got != 1 {
		t.Fatalf("flow = %d, want 1", got)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	// Same invariant after an infeasible attempt.
	s.SetSupply(0, 20)
	s.SetSupply(1, -20)
	if _, err := s.Solve(); err != ErrInfeasible {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	s.SetSupply(0, 2)
	s.SetSupply(1, -2)
	cost, err = s.Solve()
	if err != nil || cost != 10 {
		t.Fatalf("solve after infeasible attempt: cost=%v err=%v", cost, err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartMatchesFresh is the satellite acceptance test: solve,
// mutate supplies and costs in place, re-solve through the warm-start
// path, and the result must match a fresh solver built directly with
// the mutated instance data.
func TestWarmStartMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		warm := buildRandomFeasible(rng, false)
		if _, err := warm.Solve(); err != nil {
			t.Fatalf("seed %d: initial solve: %v", seed, err)
		}

		// Mutate: re-cost a third of the arcs, re-route some supply.
		n := warm.N()
		for id := 0; id < warm.NumArcs(); id++ {
			if rng.Intn(3) == 0 {
				warm.SetCost(id, int64(rng.Intn(80)))
			}
			if rng.Intn(7) == 0 {
				warm.UpdateCapacity(id, int64(1+rng.Intn(300)))
			}
		}
		// Backbone arcs (the first 2(n−1) IDs: forward then reverse
		// chain) keep feasibility; restore their capacity in case the
		// loop above shrank one.
		for id := 0; id < 2*(n-1); id++ {
			warm.UpdateCapacity(id, 1_000_000)
		}
		for k := 0; k < 3; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			amt := int64(rng.Intn(25))
			warm.AddSupply(a, amt)
			warm.AddSupply(b, -amt)
		}

		// Fresh twin with the mutated configuration.
		fresh := New(n)
		for v := 0; v < n; v++ {
			fresh.SetSupply(v, warm.Supply(v))
		}
		for id := 0; id < warm.NumArcs(); id++ {
			fwd, rev := warm.pair(id)
			fresh.AddArc(int(rev.to), int(fwd.to), warm.Capacity(id), warm.Cost(id))
		}

		warm.Reset()
		warmCost, warmErr := warm.Solve()
		freshCost, freshErr := fresh.Solve()
		if (warmErr == nil) != (freshErr == nil) {
			t.Fatalf("seed %d: warm err %v, fresh err %v", seed, warmErr, freshErr)
		}
		if warmErr != nil {
			continue
		}
		if warmCost != freshCost {
			t.Fatalf("seed %d: warm cost %v != fresh cost %v", seed, warmCost, freshCost)
		}
		if err := warm.Verify(); err != nil {
			t.Fatalf("seed %d: warm certificate: %v", seed, err)
		}
		if err := fresh.Verify(); err != nil {
			t.Fatalf("seed %d: fresh certificate: %v", seed, err)
		}
	}
}

// TestWarmStartNegativeCostUpdate drives the Bellman–Ford fallback: a
// cost update that invalidates the previous potentials (new negative
// reduced costs) must still re-solve correctly.
func TestWarmStartNegativeCostUpdate(t *testing.T) {
	s := New(3)
	s.SetSupply(0, 2)
	s.SetSupply(2, -2)
	direct := s.AddArc(0, 2, 10, 1)
	a1 := s.AddArc(0, 1, 10, 4)
	a2 := s.AddArc(1, 2, 10, 4)
	cost, err := s.Solve()
	if err != nil || cost != 2 {
		t.Fatalf("first solve: cost=%v err=%v", cost, err)
	}
	// Make the two-hop path strongly negative: old potentials are now
	// invalid and the warm validity scan must reject them.
	s.SetCost(a1, -6)
	s.SetCost(a2, -6)
	s.Reset()
	cost, err = s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if cost != 2*(-12) {
		t.Fatalf("cost = %v, want -24", cost)
	}
	if s.Flow(direct) != 0 || s.Flow(a1) != 2 || s.Flow(a2) != 2 {
		t.Fatalf("flows %d %d %d", s.Flow(direct), s.Flow(a1), s.Flow(a2))
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartAfterTopologyChange: arcs added after a solve rebuild
// the adjacency index but keep prior potentials as a warm seed.
func TestWarmStartAfterTopologyChange(t *testing.T) {
	s := New(4)
	s.SetSupply(0, 3)
	s.SetSupply(3, -3)
	s.AddArc(0, 1, 10, 5)
	s.AddArc(1, 3, 10, 5)
	cost, err := s.Solve()
	if err != nil || cost != 30 {
		t.Fatalf("cost=%v err=%v", cost, err)
	}
	// A cheaper route through a new arc pair.
	s.AddArc(0, 2, 10, 1)
	s.AddArc(2, 3, 10, 1)
	s.Reset()
	cost, err = s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if cost != 6 {
		t.Fatalf("cost = %v, want 6 via the new route", cost)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	// And a new node on a cheaper detour.
	v := s.AddNode()
	s.AddArc(0, v, 10, 0)
	s.AddArc(v, 3, 10, 0)
	s.Reset()
	cost, err = s.Solve()
	if err != nil || cost != 0 {
		t.Fatalf("after AddNode: cost=%v err=%v", cost, err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmResolveAllocFree asserts the acceptance criterion directly:
// after the first solve on a topology, Reset+Solve allocates nothing.
func TestWarmResolveAllocFree(t *testing.T) {
	s := NewGridInstance(20, 12, 9)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		s.Reset()
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Reset+Solve allocates %v objects/op, want 0", allocs)
	}
}

// TestWarmResolveWithCostUpdatesAllocFree: the D/W-iteration shape —
// cost updates between re-solves — must also stay allocation-free.
func TestWarmResolveWithCostUpdatesAllocFree(t *testing.T) {
	s := NewGridInstance(20, 12, 9)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	costs := make([]int64, s.NumArcs())
	for i := range costs {
		costs[i] = int64(rng.Intn(1000))
	}
	allocs := testing.AllocsPerRun(20, func() {
		for id := 0; id < s.NumArcs(); id += 5 {
			s.SetCost(id, costs[id])
		}
		s.Reset()
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm update+re-solve allocates %v objects/op, want 0", allocs)
	}
}

// TestWarmResolveChangedAllocFree: the incremental repair of the warm
// D-phase path — re-price a batch of arcs, ResolveChanged — allocates
// nothing once the radix heap's pool has grown to the searches' size.
// Each run prices the batch up and back, so every run repeats the
// searches of the one before.
func TestWarmResolveChangedAllocFree(t *testing.T) {
	s := NewGridInstance(20, 12, 9)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var ids []int32
	var orig, costs []int64
	for k := 0; k < 12; k++ {
		id := int32(rng.Intn(s.NumArcs()))
		if slices.Contains(ids, id) {
			continue
		}
		ids = append(ids, id)
		orig = append(orig, s.Cost(int(id)))
		costs = append(costs, int64(rng.Intn(1000)))
	}
	resolve := func(to []int64) {
		for k, id := range ids {
			s.SetCost(int(id), to[k])
		}
		if _, err := s.ResolveChanged(ids); err != nil {
			t.Fatal(err)
		}
	}
	resolves := s.EngineStats().Resolves
	allocs := testing.AllocsPerRun(20, func() {
		resolve(costs)
		resolve(orig)
	})
	if allocs != 0 {
		t.Fatalf("warm ResolveChanged allocates %v objects/op, want 0", allocs)
	}
	if got := s.EngineStats().Resolves - resolves; got != 2*21 {
		t.Fatalf("%d incremental repairs, want %d: the loop measured full solves", got, 2*21)
	}
}
