package mcmf

import (
	"fmt"
	"testing"
)

// The random equivalence gate and its buildRandomFeasible scaffolding
// live in conformance_test.go (TestConformanceRandom), where both
// algorithms run the full table-driven suite.

// TestEnginesAgreeGrid cross-checks ssp and the cost-scaling oracle on
// the exact layered D-phase grid instances the benchmarks use.
func TestEnginesAgreeGrid(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		layers := 6 + int(seed)
		width := 4 + int(seed)%5
		var ref float64
		for i, name := range engines {
			inst := NewGridInstance(layers, width, seed)
			useEngine(inst, name)
			cost, err := inst.Solve()
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, name, err)
			}
			if err := inst.Verify(); err != nil {
				t.Fatalf("seed %d: %s certificate: %v", seed, name, err)
			}
			if i == 0 {
				ref = cost
			} else if cost != ref {
				t.Fatalf("seed %d: %s cost %v != %v", seed, name, cost, ref)
			}
		}
	}
}

// TestOneSolverBothEngines runs both algorithms on one instance
// object: the oracle starts from the unsolved residual configuration
// regardless of a prior ssp Solve, so the costs must match.
func TestOneSolverBothEngines(t *testing.T) {
	s := NewGridInstance(12, 8, 3)
	costSSP, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	costCS, err := scalingSolve(s)
	if err != nil {
		t.Fatal(err)
	}
	if costSSP != costCS {
		t.Fatalf("same-object engines disagree: %v vs %v", costSSP, costCS)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFlowEngines compares ssp with the cost-scaling oracle on identical
// D-phase-shaped instances of growing size — "fresh" builds and solves
// (the per-problem cost), "warm" re-solves one network through the
// Reset warm-start path (the per-iteration cost).  Every row reports
// its flow work per op (flowWork); the bench gate (bench_gate.json,
// cmd/mkbench -gate) holds those and allocs/op, and the measured
// crossover points are documented in EXPERIMENTS.md.
func BenchmarkFlowEngines(b *testing.B) {
	for _, size := range []struct{ layers, width int }{{10, 10}, {40, 25}, {80, 50}} {
		name := fmt.Sprintf("%dx%d", size.layers, size.width)
		for _, engine := range engines {
			b.Run(engine+"/"+name+"/fresh", func(b *testing.B) {
				var work flowWork
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := NewGridInstance(size.layers, size.width, 7)
					useEngine(s, engine)
					if _, err := s.Solve(); err != nil {
						b.Fatal(err)
					}
					work.add(Stats{}, s.EngineStats())
				}
				work.report(b)
			})
			b.Run(engine+"/"+name+"/warm", func(b *testing.B) {
				s := NewGridInstance(size.layers, size.width, 7)
				useEngine(s, engine)
				if _, err := s.Solve(); err != nil {
					b.Fatal(err)
				}
				var work flowWork
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Reset()
					before := s.EngineStats()
					if _, err := s.Solve(); err != nil {
						b.Fatal(err)
					}
					work.add(before, s.EngineStats())
				}
				work.report(b)
			})
		}
	}
}

// flowWork sums a Solver's Visited, Augmentations, Phases, Races and
// RaceQuits over a benchmark's ops and reports them per op:
// deterministic work counters the bench gate holds where ns/op would
// only measure the host.  Each op is read around its own solve because
// Solver.Reset zeroes Visited.
type flowWork struct{ visited, augs, phases, races, quits int64 }

func (w *flowWork) add(before, after Stats) {
	w.visited += after.Visited - before.Visited
	w.augs += after.Augmentations - before.Augmentations
	w.phases += after.Phases - before.Phases
	w.races += after.Races - before.Races
	w.quits += after.RaceQuits - before.RaceQuits
}

func (w *flowWork) report(b *testing.B) {
	n := float64(b.N)
	b.ReportMetric(float64(w.visited)/n, "visited/op")
	b.ReportMetric(float64(w.augs)/n, "augs/op")
	b.ReportMetric(float64(w.phases)/n, "phases/op")
	b.ReportMetric(float64(w.races)/n, "races/op")
	b.ReportMetric(float64(w.quits)/n, "racequits/op")
}
