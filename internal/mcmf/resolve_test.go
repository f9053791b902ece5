package mcmf

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// The freshTwin/mutateRandom scaffolding and the random
// resolve-vs-fresh property gate moved to conformance_test.go
// (TestConformanceResolve), which runs them on ssp and the
// cost-scaling oracle.  This file keeps the resolve tests that pin
// ssp-specific behaviour: exact fallback/no-fallback gate outcomes and
// the radix search at megascale distances.

// TestResolveDisconnectedSupply covers the degenerate network the
// property test can't hit reliably: supply on a node with no arcs at
// all.  Resolve and fresh solve must both report infeasibility, and a
// later repair through Resolve must succeed again.
func TestResolveDisconnectedSupply(t *testing.T) {
	s := New(4) // node 3 is isolated
	a01 := s.AddArc(0, 1, 10, 2)
	s.AddArc(1, 2, 10, 2)
	s.SetSupply(0, 3)
	s.SetSupply(2, -3)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	// Shift the demand onto the isolated node: infeasible.
	s.SetSupply(2, 0)
	s.SetSupply(3, -3)
	if _, err := s.ResolveChanged(nil); err != ErrInfeasible {
		t.Fatalf("resolve on disconnected demand: err=%v, want ErrInfeasible", err)
	}
	if _, err := freshTwin(s).Solve(); err != ErrInfeasible {
		t.Fatalf("fresh on disconnected demand: err=%v, want ErrInfeasible", err)
	}
	// Repair the supplies; the next Resolve falls back to a full solve
	// (the failed attempt invalidated the flow) and must succeed.
	s.SetSupply(2, -3)
	s.SetSupply(3, 0)
	cost, err := s.ResolveChanged(nil)
	if err != nil || cost != 12 {
		t.Fatalf("repaired resolve: cost=%v err=%v, want 12", cost, err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if st := s.EngineStats(); st.FullFallbacks == 0 {
		t.Fatal("expected the post-failure resolve to fall back to a full solve")
	}
	_ = a01
}

// TestResolveZeroCapacityReroute pins the drain-and-reroute behaviour:
// cutting the capacity of a flow-carrying arc to zero must reroute its
// flow over the remaining (more expensive) path.
func TestResolveZeroCapacityReroute(t *testing.T) {
	s := New(3)
	cheapA := s.AddArc(0, 1, 10, 1)
	cheapB := s.AddArc(1, 2, 10, 1)
	direct := s.AddArc(0, 2, 10, 9)
	s.SetSupply(0, 4)
	s.SetSupply(2, -4)
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
	if st := s.EngineStats(); st.Resolves != 1 {
		t.Fatalf("stats report %d resolves, want 1 (no fallback)", st.Resolves)
	}
}

// FuzzResolveDeltas drives ResolveChanged with fuzzer-chosen delta
// sequences over a fixed feasible base instance; every step must match
// a fresh solve on the mutated configuration exactly.
func FuzzResolveDeltas(f *testing.F) {
	f.Add([]byte{0x01, 0x20, 0x13}, int64(1))
	f.Add([]byte{0xff, 0x00, 0x7a, 0x31, 0x02, 0x9c}, int64(7))
	f.Add([]byte{0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17}, int64(42))
	f.Fuzz(func(t *testing.T, deltas []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		s := buildRandomFeasible(rng, false)
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		var changed []int32
		narcs := s.NumArcs()
		for i := 0; i+2 < len(deltas); i += 3 {
			id := int(deltas[i]) % narcs
			switch deltas[i+1] % 3 {
			case 0:
				s.SetCost(id, int64(deltas[i+2]))
			case 1:
				s.UpdateCapacity(id, int64(deltas[i+2])*4)
			default:
				s.UpdateCapacity(id, 0)
			}
			changed = append(changed, int32(id))
		}
		gotCost, gotErr := s.ResolveChanged(changed)
		wantCost, wantErr := freshTwin(s).Solve()
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("resolve err %v, fresh err %v", gotErr, wantErr)
		}
		if gotErr == nil && gotCost != wantCost {
			t.Fatalf("resolve cost %v != fresh cost %v", gotCost, wantCost)
		}
		if gotErr == nil {
			if err := s.Verify(); err != nil {
				t.Fatalf("certificate: %v", err)
			}
		}
	})
}

// BenchmarkDPhaseResolve measures the acceptance criterion of the
// incremental re-flow: a steady-state D-phase-shaped loop that mutates
// a small batch of arc costs per iteration, re-solved three ways —
// "warmfull" (Reset + full Solve from warm potentials, the previous
// best path), and "resolve/ssp" via the incremental drain-and-reroute.
// The bench gate holds every row's flow work per op and the warmfull /
// resolve/ssp ns/op ratio.
func BenchmarkDPhaseResolve(b *testing.B) {
	const batch = 24
	mkSchedule := func(s *Solver) ([]int32, []int64) {
		rng := rand.New(rand.NewSource(11))
		ids := make([]int32, 256*batch)
		costs := make([]int64, len(ids))
		for i := range ids {
			ids[i] = int32(rng.Intn(s.NumArcs()))
			costs[i] = int64(rng.Intn(1000))
		}
		return ids, costs
	}
	b.Run("warmfull", func(b *testing.B) {
		s := NewGridInstance(40, 25, 7)
		ids, costs := mkSchedule(s)
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
		var work flowWork
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (i % 256) * batch
			for k := 0; k < batch; k++ {
				s.SetCost(int(ids[off+k]), costs[off+k])
			}
			s.Reset()
			before := s.EngineStats()
			if _, err := s.Solve(); err != nil {
				b.Fatal(err)
			}
			work.add(before, s.EngineStats())
		}
		work.report(b)
	})
	b.Run("resolve/ssp", func(b *testing.B) {
		s := NewGridInstance(40, 25, 7)
		ids, costs := mkSchedule(s)
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
		var work flowWork
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (i % 256) * batch
			for k := 0; k < batch; k++ {
				s.SetCost(int(ids[off+k]), costs[off+k])
			}
			before := s.EngineStats()
			if _, err := s.ResolveChanged(ids[off : off+batch]); err != nil {
				b.Fatal(err)
			}
			work.add(before, s.EngineStats())
		}
		work.report(b)
	})
}

// BenchmarkDPhaseResolveArmed is the poll-hook overhead gate: the
// resolve loop of BenchmarkDPhaseResolve with every abort source armed
// (live context, wall-clock deadline, work budget) but never firing.
// Comparing its resolve/ssp row against BenchmarkDPhaseResolve's
// measures the full cost of cancellation support on the hot path —
// the robustness contract requires <2% and zero extra allocations.
func BenchmarkDPhaseResolveArmed(b *testing.B) {
	const batch = 24
	mkSchedule := func(s *Solver) ([]int32, []int64) {
		rng := rand.New(rand.NewSource(11))
		ids := make([]int32, 256*batch)
		costs := make([]int64, len(ids))
		for i := range ids {
			ids[i] = int32(rng.Intn(s.NumArcs()))
			costs[i] = int64(rng.Intn(1000))
		}
		return ids, costs
	}
	b.Run("resolve/ssp", func(b *testing.B) {
		s := NewGridInstance(40, 25, 7)
		ids, costs := mkSchedule(s)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s.SetContext(ctx)
		s.SetDeadline(time.Now().Add(24 * time.Hour))
		s.SetWorkBudget(1 << 60)
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (i % 256) * batch
			for k := 0; k < batch; k++ {
				s.SetCost(int(ids[off+k]), costs[off+k])
			}
			if _, err := s.ResolveChanged(ids[off : off+batch]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// heapTwin returns a fresh twin of s whose searches are pinned to the
// heap: the reference the radix search is held to.
func heapTwin(s *Solver) *Solver {
	h := freshTwin(s)
	h.ss.heapOnly = true
	return h
}

// TestDialOverflowHorizon puts a dead end near the source and the only
// route to the deficit just past it, at distances in the radix heap's
// high buckets: the search must settle the dead end, move the route's
// entry down and still reach the deficit (a Dial ring of 4096 buckets
// once dropped such a route at a rebase and reported ErrInfeasible).
func TestDialOverflowHorizon(t *testing.T) {
	const far = 1 << 40
	build := func() *Solver {
		s := New(4)
		s.AddArc(0, 1, 10, far-1) // dead end, one below the route
		s.AddArc(0, 2, 10, far)   // the real route
		s.AddArc(2, 3, 10, 0)
		s.SetSupply(0, 1)
		s.SetSupply(3, -1)
		return s
	}
	d := build()
	want, err := heapTwin(d).Solve()
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Solve()
	if err != nil {
		t.Fatalf("radix search on feasible far-route instance: %v", err)
	}
	if got != want {
		t.Fatalf("radix search cost %v != heap cost %v", got, want)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDialHugeCostsMatchSSP drives the radix heap's bucket moves hard:
// random feasible instances with costs scaled by up to about 10^7, so
// distances spread over dozens of buckets, must solve to exactly the
// optimum of a heap-pinned twin (the D-phase integerizes at 1e6, so
// megascale reduced costs are the production shape).
func TestDialHugeCostsMatchSSP(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := buildRandomFeasible(rng, false)
		scale := int64(1+rng.Intn(5000)) << rng.Intn(12)
		for id := 0; id < a.NumArcs(); id++ {
			a.SetCost(id, a.Cost(id)*scale)
		}
		b := freshTwin(a)
		a.ss.heapOnly = true
		want, err1 := a.Solve()
		got, err2 := b.Solve()
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: heap err %v, radix err %v", seed, err1, err2)
		}
		if got != want {
			t.Fatalf("seed %d (scale %d): radix cost %v != heap cost %v", seed, scale, got, want)
		}
		if err := b.Verify(); err != nil {
			t.Fatalf("seed %d: radix certificate: %v", seed, err)
		}
		// And again through the incremental path after a delta batch.
		changed := mutateRandom(rng, b, false)
		for _, id := range changed {
			b.SetCost(int(id), b.Cost(int(id))*scale)
		}
		for i := 0; i < a.NumArcs(); i++ {
			a.SetCost(i, b.Cost(i))
			a.UpdateCapacity(i, b.Capacity(i))
		}
		for v := 0; v < a.N(); v++ {
			a.SetSupply(v, b.Supply(v))
		}
		gotR, err2 := b.ResolveChanged(changed)
		wantR, err1 := a.Solve()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("seed %d: resolve err %v, fresh err %v", seed, err2, err1)
		}
		if err1 == nil && gotR != wantR {
			t.Fatalf("seed %d: radix resolve cost %v != heap cost %v", seed, gotR, wantR)
		}
	}
}
