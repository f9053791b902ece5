// Conformance harness: ssp against the cost-scaling oracle.
//
// Both algorithms run the same table-driven suites — the 110-instance
// random equivalence suite, the warm-start suite, the
// incremental-resolve rounds, the degenerate shapes (zero-capacity
// cut, disconnected supply, zero total supply) — so ssp, the one
// algorithm the product runs, is checked against an independent
// algorithm on every shape.  The
// scaffolding here (random instance builder, state capture/diff, fresh
// twins, random mutation batches) is shared with equivalence_test.go
// and resolve_test.go.
//
// Equivalence levels: across *different* engines the guaranteed
// agreement is the optimal objective (min-cost flows are degenerate —
// equally optimal flows may differ per arc), each certified by
// Verify.  Two runs of one engine on twin instances must be
// bit-identical — flows, potentials, cost.
package mcmf

import (
	"fmt"
	"math/rand"
	"testing"
)

// buildRandomFeasible constructs a random feasible instance: a
// high-capacity backbone chain 0→1→…→n−1 (bidirectional when all costs
// are non-negative) guarantees every supply/demand pair can route;
// random extra arcs (DAG-oriented when negative costs are allowed, so
// no negative cycles arise) create alternative routes the engines must
// price identically.  The backbone occupies the lowest arc IDs: n−1
// forward arcs, then n−1 reverse arcs unless negativeCosts (a reverse
// chain next to negative forward arcs could close a negative cycle, so
// there supply is always placed upstream of its demand).
func buildRandomFeasible(rng *rand.Rand, negativeCosts bool) *Solver {
	n := 4 + rng.Intn(37)
	s := New(n)
	for v := 0; v+1 < n; v++ {
		s.AddArc(v, v+1, 1_000_000, int64(rng.Intn(20)))
	}
	if !negativeCosts {
		for v := 0; v+1 < n; v++ {
			s.AddArc(v+1, v, 1_000_000, int64(rng.Intn(20)))
		}
	}
	m := n + rng.Intn(4*n)
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		lo := 0
		if negativeCosts {
			// DAG orientation only: negative arcs cannot close a cycle.
			if u > v {
				u, v = v, u
			}
			lo = -5
		}
		s.AddArc(u, v, int64(1+rng.Intn(200)), int64(lo+rng.Intn(60)))
	}
	for k := 0; k < 1+rng.Intn(5); k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if negativeCosts && a > b {
			a, b = b, a // forward-only backbone: route supply downstream
		}
		amt := int64(1 + rng.Intn(40))
		s.AddSupply(a, amt)
		s.AddSupply(b, -amt)
	}
	return s
}

// buildTreeFeasible constructs a many-source tree instance shaped like
// a wide tree's D-phase network: a complete binary tree whose
// parent/child pairs are joined by high-capacity arcs both ways (all
// costs non-negative, so no negative cycles), supply on every leaf and
// the balancing demand spread over a few internal nodes.  Its full
// solves run several primal–dual phases and races of the per-source
// loop.
func buildTreeFeasible(rng *rand.Rand) *Solver {
	n := 1<<(5+rng.Intn(3)) - 1 // 31, 63 or 127 nodes
	s := New(n)
	for c := 1; c < n; c++ {
		p := (c - 1) / 2
		s.AddArc(c, p, 1_000_000, int64(rng.Intn(4)))
		s.AddArc(p, c, 1_000_000, int64(rng.Intn(4)))
	}
	var total int64
	for leaf := n / 2; leaf < n; leaf++ {
		amt := int64(1 + rng.Intn(20))
		s.SetSupply(leaf, amt)
		total += amt
	}
	sinks := 1 + rng.Intn(4)
	for k := 0; k < sinks; k++ {
		share := total / int64(sinks-k)
		s.AddSupply(rng.Intn(n/2), -share)
		total -= share
	}
	return s
}

// flowState captures everything a solve writes: per-arc flows, the
// node potentials and the optimal cost.
type flowState struct {
	cost  float64
	flows []int64
	pots  []int64
}

func captureState(s *Solver, cost float64) flowState {
	st := flowState{cost: cost}
	for id := 0; id < s.NumArcs(); id++ {
		st.flows = append(st.flows, s.Flow(id))
	}
	for v := 0; v < s.N(); v++ {
		st.pots = append(st.pots, s.Potential(v))
	}
	return st
}

func diffState(t *testing.T, tag string, want, got flowState) {
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

// freshTwin builds a new solver with s's current configuration (arcs,
// configured capacities, costs, supplies) — the reference a resolved
// instance must match.
func freshTwin(s *Solver) *Solver {
	f := New(s.N())
	for v := 0; v < s.N(); v++ {
		f.SetSupply(v, s.Supply(v))
	}
	for id := 0; id < s.NumArcs(); id++ {
		fwd, rev := s.pair(id)
		f.AddArc(int(rev.to), int(fwd.to), s.Capacity(id), s.Cost(id))
	}
	return f
}

// mutateRandom applies one random batch of arc-cost, arc-capacity and
// supply deltas to s and returns the changed arc IDs.
func mutateRandom(rng *rand.Rand, s *Solver, allowNegativeCosts bool) []int32 {
	var changed []int32
	narcs := s.NumArcs()
	for k := 0; k < 1+rng.Intn(6); k++ {
		id := rng.Intn(narcs)
		switch rng.Intn(3) {
		case 0:
			lo := 0
			if allowNegativeCosts {
				lo = -5
			}
			s.SetCost(id, int64(lo+rng.Intn(60)))
		case 1:
			s.UpdateCapacity(id, int64(rng.Intn(300)))
		default: // zero-capacity degenerate arc
			s.UpdateCapacity(id, 0)
		}
		changed = append(changed, int32(id))
	}
	// Supply deltas in balanced pairs (sometimes routing through the
	// same node, a no-op pair).
	for k := 0; k < rng.Intn(3); k++ {
		a, b := rng.Intn(s.N()), rng.Intn(s.N())
		amt := int64(rng.Intn(20))
		s.AddSupply(a, amt)
		s.AddSupply(b, -amt)
	}
	return changed
}

// engines names the two algorithms the suites cross-check, in the
// order FuzzEngineAgreement's corpus indexes them: the cost-scaling
// oracle and ssp, the product's algorithm.
var engines = []string{"costscaling", "ssp"}

// useEngine switches s to the named algorithm (ssp is every Solver's
// own).
func useEngine(s *Solver, name string) {
	if name == "costscaling" {
		s.useCostScaling()
	}
}

// forEachEngine runs f as a subtest per algorithm.
func forEachEngine(t *testing.T, f func(t *testing.T, engine string)) {
	for _, name := range engines {
		t.Run(name, func(t *testing.T) { f(t, name) })
	}
}

// newEngineInstance builds the seed's twin instance on the given
// algorithm.
func newEngineInstance(t *testing.T, engine string, seed int64, negative bool) *Solver {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inst := buildRandomFeasible(rng, negative)
	useEngine(inst, engine)
	return inst
}

// TestConformanceRandom is the cross-algorithm equivalence gate: on 110
// randomized D-phase-shaped instances, both algorithms must find the
// same optimal cost as the "ssp" reference on an identical
// twin instance and pass the self-certifying Verify.
func TestConformanceRandom(t *testing.T) {
	const instances = 110
	ref := make([]float64, instances)
	for seed := int64(0); seed < instances; seed++ {
		inst := newEngineInstance(t, "ssp", seed, seed%3 == 0)
		cost, err := inst.Solve()
		if err != nil {
			t.Fatalf("seed %d: ssp reference: %v", seed, err)
		}
		ref[seed] = cost
	}
	forEachEngine(t, func(t *testing.T, engine string) {
		for seed := int64(0); seed < instances; seed++ {
			inst := newEngineInstance(t, engine, seed, seed%3 == 0)
			cost, err := inst.Solve()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if cost != ref[seed] {
				t.Fatalf("seed %d: optimal cost %v != ssp reference %v", seed, cost, ref[seed])
			}
			if err := inst.Verify(); err != nil {
				t.Fatalf("seed %d: certificate: %v", seed, err)
			}
			if st := inst.EngineStats(); st.Solves != 1 {
				t.Fatalf("seed %d: %d solves reported, want 1", seed, st.Solves)
			}
		}
	})
}

// TestConformanceWarm is the warm-start suite: solve, mutate costs,
// capacities and supplies in place, re-solve through the Reset
// warm-start path, and the cost must match a fresh solver built from
// the mutated configuration.
func TestConformanceWarm(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			warm := buildRandomFeasible(rng, false)
			useEngine(warm, engine)
			if _, err := warm.Solve(); err != nil {
				t.Fatalf("seed %d: initial solve: %v", seed, err)
			}
			n := warm.N()
			for id := 0; id < warm.NumArcs(); id++ {
				if rng.Intn(3) == 0 {
					warm.SetCost(id, int64(rng.Intn(80)))
				}
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
			fresh := freshTwin(warm)
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
		}
	})
}

// TestConformanceResolve drives every engine through random mutation
// rounds via ResolveChanged: each round must reach exactly the optimal
// cost of a fresh solve on the mutated configuration — including
// degenerate rounds where capacities drop to zero and the instance
// goes infeasible (both paths must agree on the error too).
func TestConformanceResolve(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			negative := seed%4 == 0
			s := buildRandomFeasible(rng, negative)
			useEngine(s, engine)
			if _, err := s.Solve(); err != nil {
				t.Fatalf("seed %d: initial solve: %v", seed, err)
			}
			for round := 0; round < 8; round++ {
				// Keep the configured graph negative-cycle-free: new
				// negative costs only on instances whose arcs are all
				// DAG-oriented (see buildRandomFeasible).
				changed := mutateRandom(rng, s, negative)
				gotCost, gotErr := s.ResolveChanged(changed)
				wantCost, wantErr := freshTwin(s).Solve()
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("seed %d round %d: resolve err %v, fresh err %v",
						seed, round, gotErr, wantErr)
				}
				if gotErr != nil {
					continue // infeasible round: next resolve falls back
				}
				if gotCost != wantCost {
					t.Fatalf("seed %d round %d: resolve cost %v != fresh cost %v",
						seed, round, gotCost, wantCost)
				}
				if err := s.Verify(); err != nil {
					t.Fatalf("seed %d round %d: resolve certificate: %v", seed, round, err)
				}
			}
		}
	})
}

// TestConformanceDegenerate runs every engine through the fixed
// degenerate shapes that broke the PR-3 resolve work: a flow-carrying
// arc cut to zero capacity (must reroute), supply shifted onto a
// disconnected node (must report infeasible, then recover), and zero
// total supply (must route nothing at zero cost).
func TestConformanceDegenerate(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		t.Run("zerocap", func(t *testing.T) {
			s := New(3)
			cheapA := s.AddArc(0, 1, 10, 1)
			cheapB := s.AddArc(1, 2, 10, 1)
			direct := s.AddArc(0, 2, 10, 9)
			s.SetSupply(0, 4)
			s.SetSupply(2, -4)
			useEngine(s, engine)
			if cost, err := s.Solve(); err != nil || cost != 8 {
				t.Fatalf("initial: cost=%v err=%v, want 8", cost, err)
			}
			s.UpdateCapacity(cheapB, 0)
			cost, err := s.ResolveChanged([]int32{int32(cheapB)})
			if err != nil || cost != 36 {
				t.Fatalf("after cut: cost=%v err=%v, want 36", cost, err)
			}
			if s.Flow(direct) != 4 || s.Flow(cheapA) != 0 || s.Flow(cheapB) != 0 {
				t.Fatalf("flows %d/%d/%d, want 0/0/4 rerouted onto the direct arc",
					s.Flow(cheapA), s.Flow(cheapB), s.Flow(direct))
			}
			if err := s.Verify(); err != nil {
				t.Fatal(err)
			}
		})
		t.Run("disconnected", func(t *testing.T) {
			s := New(4) // node 3 is isolated
			s.AddArc(0, 1, 10, 2)
			s.AddArc(1, 2, 10, 2)
			s.SetSupply(0, 3)
			s.SetSupply(2, -3)
			useEngine(s, engine)
			if _, err := s.Solve(); err != nil {
				t.Fatal(err)
			}
			s.SetSupply(2, 0)
			s.SetSupply(3, -3)
			if _, err := s.ResolveChanged(nil); err != ErrInfeasible {
				t.Fatalf("resolve on disconnected demand: err=%v, want ErrInfeasible", err)
			}
			s.SetSupply(2, -3)
			s.SetSupply(3, 0)
			cost, err := s.ResolveChanged(nil)
			if err != nil || cost != 12 {
				t.Fatalf("repaired resolve: cost=%v err=%v, want 12", cost, err)
			}
			if err := s.Verify(); err != nil {
				t.Fatal(err)
			}
		})
		t.Run("zerosupply", func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			s := buildRandomFeasible(rng, true)
			for v := 0; v < s.N(); v++ {
				s.SetSupply(v, 0)
			}
			useEngine(s, engine)
			cost, err := s.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if cost != 0 {
				t.Fatalf("zero total supply: cost %v, want 0 (no negative cycles configured)", cost)
			}
			if err := s.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestConformanceStatsReset pins the Reset contract on every engine:
// the per-problem work counter (Visited) is
// zeroed by Solver.Reset so back-to-back problems on a reused solver
// report per-problem work, while lifetime counters (Solves) keep
// accumulating.
func TestConformanceStatsReset(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		s := NewGridInstance(8, 6, 3)
		useEngine(s, engine)
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		first := s.EngineStats()
		if first.Visited == 0 {
			t.Fatalf("first solve reports no visited work: %+v", first)
		}
		s.Reset()
		if st := s.EngineStats(); st.Visited != 0 {
			t.Fatalf("Reset did not clear per-problem work counters: %+v", st)
		}
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		second := s.EngineStats()
		// The re-solve warm-starts from the kept potentials, so it does
		// at most the first run's work; a cumulative leak would report
		// strictly more than the first run.
		if second.Visited == 0 || second.Visited > first.Visited {
			t.Fatalf("re-solve of the identical problem visited %d, first run %d — cumulative leak?",
				second.Visited, first.Visited)
		}
		if second.Solves != first.Solves+1 {
			t.Fatalf("lifetime Solves counter %d, want %d (must survive Reset)", second.Solves, first.Solves+1)
		}
	})
}

// FuzzEngineAgreement drives a fuzzer-chosen engine pair through an
// identical interleaved Solve/ResolveChanged call sequence over twin
// instances (plus an isolated node for disconnected-supply shapes) and
// asserts agreement at every step: identical objectives and error
// outcomes for any pair, and bit-identical flows when an engine is
// paired with itself.  The seed corpus covers the
// degenerates that broke the PR-3 resolve work: zero-capacity cuts and
// supply shifted onto a disconnected node.  A pair byte with its high
// bit set builds a many-source tree (buildTreeFeasible) instead, whose
// full solves switch from primal–dual phases to the per-source loop.
func FuzzEngineAgreement(f *testing.F) {
	f.Add([]byte{0x01, 0x20, 0x13}, int64(1), uint8(4))
	f.Add([]byte{0x02, 0x02, 0x00, 0x05, 0x02, 0x01}, int64(3), uint8(2)) // zero-capacity rounds
	f.Add([]byte{0x03, 0x00, 0x07, 0x03, 0x01, 0x02}, int64(5), uint8(8)) // disconnected-supply rounds
	f.Add([]byte{0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17}, int64(42), uint8(3))
	f.Add([]byte{0x05, 0x04, 0x00, 0x21, 0x00, 0x30, 0x09, 0x04, 0x00}, int64(11), uint8(0x8e)) // many-source tree, costscaling vs ssp
	f.Fuzz(func(t *testing.T, deltas []byte, seed int64, pair uint8) {
		nameA := engines[int(pair)%len(engines)]
		nameB := engines[(int(pair)/len(engines))%len(engines)]

		build := func(name string) (*Solver, int) {
			rng := rand.New(rand.NewSource(seed))
			var s *Solver
			if pair&0x80 != 0 {
				s = buildTreeFeasible(rng)
			} else {
				s = buildRandomFeasible(rng, false)
			}
			iso := s.AddNode() // disconnected: no arcs ever touch it
			useEngine(s, name)
			return s, iso
		}
		a, isoA := build(nameA)
		b, _ := build(nameB)
		// Bit-level agreement holds within one engine; across engines
		// only the objective is pinned (optimal flows are degenerate).
		bitwise := nameA == nameB

		check := func(step string, costA, costB float64, errA, errB error) {
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s: %s err %v, %s err %v", step, nameA, errA, nameB, errB)
			}
			if errA != nil {
				return
			}
			if costA != costB {
				t.Fatalf("%s: %s cost %v != %s cost %v", step, nameA, costA, nameB, costB)
			}
			if err := a.Verify(); err != nil {
				t.Fatalf("%s: %s certificate: %v", step, nameA, err)
			}
			if err := b.Verify(); err != nil {
				t.Fatalf("%s: %s certificate: %v", step, nameB, err)
			}
			if bitwise {
				diffState(t, step, captureState(a, costA), captureState(b, costB))
			}
		}

		costA, errA := a.Solve()
		costB, errB := b.Solve()
		check("initial solve", costA, costB, errA, errB)

		narcs := a.NumArcs()
		var changed []int32
		for i := 0; i+2 < len(deltas); i += 3 {
			id := int(deltas[i]) % narcs
			switch deltas[i+1] % 5 {
			case 0:
				a.SetCost(id, int64(deltas[i+2]))
				b.SetCost(id, int64(deltas[i+2]))
				changed = append(changed, int32(id))
			case 1:
				a.UpdateCapacity(id, int64(deltas[i+2])*4)
				b.UpdateCapacity(id, int64(deltas[i+2])*4)
				changed = append(changed, int32(id))
			case 2: // zero-capacity degenerate
				a.UpdateCapacity(id, 0)
				b.UpdateCapacity(id, 0)
				changed = append(changed, int32(id))
			case 3: // shift supply onto the disconnected node
				amt := int64(deltas[i+2] % 8)
				v := int(deltas[i+2]) % a.N()
				if v == isoA {
					v = 0
				}
				a.AddSupply(isoA, amt)
				a.AddSupply(v, -amt)
				b.AddSupply(isoA, amt)
				b.AddSupply(v, -amt)
			default: // interleave a full warm solve between resolves
				costA, errA = a.Solve()
				costB, errB = b.Solve()
				check(fmt.Sprintf("interleaved solve @%d", i), costA, costB, errA, errB)
				changed = changed[:0]
				continue
			}
			costA, errA = a.ResolveChanged(changed)
			costB, errB = b.ResolveChanged(changed)
			check(fmt.Sprintf("resolve @%d", i), costA, costB, errA, errB)
			changed = changed[:0]
		}
	})
}
