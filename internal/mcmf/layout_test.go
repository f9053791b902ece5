// Arc layout: a solve stores the residual arcs grouped by tail node
// (prepare), and a topology that grows after a solve is laid out again
// in place.  Public arc IDs must survive that: every accessor reaches
// its arc through the ID→position table, and the re-laid-out network
// must be the one a solver built with all its arcs up front would
// have, so the next solve follows the same trajectory.
package mcmf

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// grownInstance builds a random instance, solves it, then grows it: a
// new node joined to the backbone both ways and carrying some supply,
// extra arcs among old nodes, and a self-loop.  It then re-prices and
// re-capacitates a few old and new arcs and returns the changed IDs.
// The same seed always yields the same history.
func grownInstance(t *testing.T, seed int64) (*Solver, []int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := buildRandomFeasible(rng, false)
	if _, err := s.Solve(); err != nil {
		t.Fatalf("seed %d: first solve: %v", seed, err)
	}
	n0 := s.N()
	old := s.NumArcs()
	v := s.AddNode()
	s.AddArc(v, 0, 1_000_000, int64(rng.Intn(20)))
	s.AddArc(0, v, 1_000_000, int64(rng.Intn(20)))
	for k := 0; k < 3+rng.Intn(8); k++ {
		a, b := rng.Intn(n0), rng.Intn(n0)
		s.AddArc(a, b, int64(1+rng.Intn(200)), int64(rng.Intn(60)))
	}
	u := rng.Intn(n0)
	s.AddArc(u, u, 5, int64(rng.Intn(10)))
	amt := int64(1 + rng.Intn(30))
	s.AddSupply(v, amt)
	s.AddSupply(rng.Intn(n0), -amt)

	var changed []int32
	for k := 0; k < 4; k++ {
		id := rng.Intn(s.NumArcs())
		if k%2 == 0 {
			id = old + rng.Intn(s.NumArcs()-old) // one of the new arcs
		}
		if rng.Intn(2) == 0 {
			s.SetCost(id, int64(rng.Intn(60)))
		} else {
			s.UpdateCapacity(id, s.Capacity(id)+int64(rng.Intn(50)))
		}
		changed = append(changed, int32(id))
	}
	return s, changed
}

// builtUpFront returns a solver with s's current configuration — every
// arc added in ID order with its current cost and capacity, the same
// supplies — holding s's current potentials, laid out before its first
// solve.
func builtUpFront(s *Solver) *Solver {
	f := freshTwin(s)
	f.prepare()
	for v := range s.node {
		f.node[v].pot = s.node[v].pot
	}
	return f
}

// sameLayout fails unless a and b store the same residual arcs at the
// same positions with the same ID→position table.
func sameLayout(t *testing.T, tag string, a, b *Solver) {
	t.Helper()
	if !slices.Equal(a.arcs, b.arcs) {
		t.Fatalf("%s: residual arcs differ", tag)
	}
	if !slices.Equal(a.csrStart, b.csrStart) {
		t.Fatalf("%s: node arc ranges differ", tag)
	}
	for id := 0; id < a.NumArcs(); id++ {
		if a.fwd[id] != b.fwd[id] {
			t.Fatalf("%s: arc %d at position %d, reference %d", tag, id, a.fwd[id], b.fwd[id])
		}
	}
}

// sameAnswers fails unless a and b agree bit for bit on every arc's
// flow, cost and capacity and every node's potential.
func sameAnswers(t *testing.T, tag string, a, b *Solver, ca, cb float64) {
	t.Helper()
	diffState(t, tag, captureState(b, cb), captureState(a, ca))
	for id := 0; id < a.NumArcs(); id++ {
		if a.Cost(id) != b.Cost(id) || a.Capacity(id) != b.Capacity(id) {
			t.Fatalf("%s: arc %d cost/capacity %d/%d, reference %d/%d", tag, id,
				a.Cost(id), a.Capacity(id), b.Cost(id), b.Capacity(id))
		}
	}
}

// TestRelayoutKeepsArcIDs grows a solved network, re-solves it with
// ResolveChanged (a full solve after the topology change) and requires
// the arcs, flows, costs, capacities and potentials to match a solver
// built with all the arcs up front, bit for bit — and again after a
// second, incremental repair on both.
func TestRelayoutKeepsArcIDs(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		s, changed := grownInstance(t, seed)
		ref := builtUpFront(s)
		got, gerr := s.ResolveChanged(changed)
		want, werr := ref.Solve()
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("seed %d: grown err %v, reference err %v", seed, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if fb := s.EngineStats().FullFallbacks; fb != 1 {
			t.Fatalf("seed %d: resolve after a topology change ran %d full fallbacks, want 1", seed, fb)
		}
		sameLayout(t, "after re-layout", s, ref)
		sameAnswers(t, "after re-layout", s, ref, got, want)
		if err := s.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		rng := rand.New(rand.NewSource(seed))
		var again []int32
		for k := 0; k < 3; k++ {
			id := rng.Intn(s.NumArcs())
			c := int64(rng.Intn(60))
			s.SetCost(id, c)
			ref.SetCost(id, c)
			again = append(again, int32(id))
		}
		got, gerr = s.ResolveChanged(again)
		want, werr = ref.ResolveChanged(again)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("seed %d: second repair err %v, reference err %v", seed, gerr, werr)
		}
		if gerr == nil {
			sameLayout(t, "second repair", s, ref)
			sameAnswers(t, "second repair", s, ref, got, want)
		}
	}
}

// TestRelayoutAbortRollsBack injects a fault at poll points of the
// first solve after a re-layout.  The aborted solver must hold exactly
// the laid-out pre-solve state (arcs, potentials), and its next solve
// must match a twin that was never aborted.
func TestRelayoutAbortRollsBack(t *testing.T) {
	errInjected := errors.New("injected fault")
	for seed := int64(1); seed <= 12; seed++ {
		probe, changed := grownInstance(t, seed)
		polls, _, err := countedRun(probe, func() (float64, error) { return probe.ResolveChanged(changed) })
		if err != nil {
			continue // an infeasible growth: nothing to roll back to
		}
		rng := rand.New(rand.NewSource(seed))
		for _, k := range cancelPoints(rng, polls, 2) {
			s, changed := grownInstance(t, seed)
			_, err := withHook(s, func(op int64) error {
				if op == int64(k) {
					return errInjected
				}
				return nil
			}, func() (float64, error) { return s.ResolveChanged(changed) })
			if !errors.Is(err, errInjected) {
				t.Fatalf("seed %d poll %d/%d: err %v, want the injected fault", seed, k, polls, err)
			}
			laid, _ := grownInstance(t, seed)
			laid.prepare()
			sameLayout(t, "rolled back", s, laid)
			for v := range laid.node {
				if s.node[v].pot != laid.node[v].pot {
					t.Fatalf("seed %d poll %d: node %d potential %d, pre-solve %d", seed, k, v, s.node[v].pot, laid.node[v].pot)
				}
			}

			twin, _ := grownInstance(t, seed)
			want, werr := twin.ResolveChanged(changed)
			got, gerr := s.ResolveChanged(changed)
			if gerr != nil || werr != nil {
				t.Fatalf("seed %d poll %d: re-solve err %v, twin err %v", seed, k, gerr, werr)
			}
			sameLayout(t, "re-solve after abort", s, twin)
			sameAnswers(t, "re-solve after abort", s, twin, got, want)
		}
	}
}
