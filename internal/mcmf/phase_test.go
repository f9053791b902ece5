package mcmf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// solveClassic is the full solve with the per-source loop routing
// every supply and no primal–dual phases: the reference the phased
// ssp Solve is held to.  It searches with s's own search, like the
// engine does.
func solveClassic(s *Solver) (float64, error) {
	var st Stats
	s.prepare()
	if err := s.beginSolve(&st); err != nil {
		return 0, err
	}
	s.ensureSSP()
	excess := s.excess[:s.n]
	copy(excess, s.supply)
	s.flowDirty = true
	s.repairable = false
	if _, _, _, err := s.augmentSome(s.sourcesOf(excess), excess, &st, unlimited); err != nil {
		return 0, err
	}
	s.markSolved()
	return s.TotalCost(), nil
}

// resolveClassic is ResolveChanged with the per-source loop routing
// the whole repair and no handover to phases: the reference resolves
// are held to.  fallback reports that the repair was refused (the
// caller then compares full solves).
func resolveClassic(s *Solver, changed []int32) (cost float64, fallback bool, err error) {
	excess, fallback, err := s.resolvePrep(changed)
	if err != nil || fallback {
		return 0, fallback, err
	}
	s.ensureSSP()
	var st Stats
	if _, _, _, err := s.augmentSome(s.sourcesOf(excess), excess, &st, unlimited); err != nil {
		return 0, false, err
	}
	s.markSolved()
	return s.TotalCost(), false, nil
}

// forceResolve primes the work-estimate gate of s so that a repair
// with no supply deltas is always run incrementally: arc repairs are
// priced at almost nothing against one unit per source.
func forceResolve(s *Solver) {
	s.ewmaFullVisits, s.ewmaResolveVisits = 1, 1e-9
}

// buildDPhaseTree constructs the D-phase flow network of a complete
// binary in-tree of 2^depth − 1 gates (internal/dcs builds the real
// one): node 0 is ground (the pinned primary inputs and the output),
// gate g ∈ [1, m] has children 2g and 2g+1, and node m+g is g's dummy.
// Every difference constraint is an uncapacitated arc — g → dummy at a
// small lower-window cost, dummy → g at a large upper-window cost, a
// child's dummy → its parent at a slack cost that is mostly zero, as
// on a balanced tree's critical paths, ground → leaf and root's dummy
// → ground — and each gate's area sensitivity C puts supply +C on its
// dummy and −C on the gate.  Searches from one source wander the
// zero-cost plateaus of such networks, which is where races quit and
// resolves hand over to phases.
func buildDPhaseTree(depth int, seed int64) *Solver {
	rng := rand.New(rand.NewSource(seed))
	m := 1<<depth - 1
	s := New(2*m + 1)
	const free = 1 << 40
	for g := 1; g <= m; g++ {
		d := m + g
		s.AddArc(g, d, free, int64(rng.Intn(8)))
		s.AddArc(d, g, free, int64(500+rng.Intn(1000)))
		slack := int64(0)
		if rng.Intn(4) == 0 {
			slack = int64(rng.Intn(40))
		}
		if g == 1 {
			s.AddArc(d, 0, free, slack)
		} else {
			s.AddArc(d, g/2, free, slack)
		}
		if 2*g > m {
			s.AddArc(0, g, free, 0)
		}
		c := int64(1 + rng.Intn(50))
		s.SetSupply(d, c)
		s.SetSupply(g, -c)
	}
	return s
}

// oracleCase is one instance shape of the classic-loop oracle: build
// returns a fresh copy, so the phased and the classic solver start
// from identical twins.
type oracleCase struct {
	name  string
	build func() *Solver
}

func oracleCases() []oracleCase {
	var cases []oracleCase
	for seed := int64(0); seed < 110; seed++ {
		seed := seed
		cases = append(cases, oracleCase{fmt.Sprintf("random/%d", seed), func() *Solver {
			return buildRandomFeasible(rand.New(rand.NewSource(seed)), seed%3 == 0)
		}})
	}
	for seed := int64(0); seed < 40; seed++ {
		for _, size := range []struct{ layers, width int }{{10, 10}, {20, 15}, {40, 25}} {
			seed, size := seed, size
			cases = append(cases, oracleCase{fmt.Sprintf("grid/%dx%d/%d", size.layers, size.width, seed), func() *Solver {
				return NewGridInstance(size.layers, size.width, seed)
			}})
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		for _, depth := range []int{5, 6, 8} {
			seed, depth := seed, depth
			cases = append(cases, oracleCase{fmt.Sprintf("tree/%d/%d", depth, seed), func() *Solver {
				return buildDPhaseTree(depth, seed)
			}})
		}
	}
	cases = append(cases,
		oracleCase{"zerocap", func() *Solver {
			s := New(3)
			s.AddArc(0, 1, 10, 1)
			s.AddArc(1, 2, 0, 1)
			s.AddArc(0, 2, 10, 9)
			s.SetSupply(0, 4)
			s.SetSupply(2, -4)
			return s
		}},
		oracleCase{"disconnected", func() *Solver {
			s := New(4) // node 3 is isolated and carries no supply
			s.AddArc(0, 1, 10, 2)
			s.AddArc(1, 2, 10, 2)
			s.SetSupply(0, 3)
			s.SetSupply(2, -3)
			return s
		}},
		oracleCase{"zerosupply", func() *Solver {
			s := buildRandomFeasible(rand.New(rand.NewSource(7)), true)
			for v := 0; v < s.N(); v++ {
				s.SetSupply(v, 0)
			}
			return s
		}},
	)
	return cases
}

// TestPhasesMatchClassicLoop is the oracle for the SSP routing: on the
// conformance suite's random, grid, D-phase tree and degenerate
// instances, a phased solve and the per-source loop must reach the same
// optimal cost, both certified by Verify, with the same potentials
// relative to node 0 — cold, after three rounds of warm cost
// perturbations solved in full, and after three more repaired by
// ResolveChanged (whose twin re-routes with the per-source loop
// alone).  The potentials are the D-phase duals internal/dcs turns into
// answers, so equal potentials are what keeps sizing answers
// bit-identical.  On the tree family some races must quit and some
// resolves must hand over to phases, so both rules are covered.
func TestPhasesMatchClassicLoop(t *testing.T) {
	var quits, handovers int64
	for _, c := range oracleCases() {
		phased, classic := c.build(), c.build()
		rng := rand.New(rand.NewSource(int64(len(c.name))))
		perturb := func() []int32 {
			var changed []int32
			for id := 0; id < phased.NumArcs(); id++ {
				if rng.Intn(4) == 0 {
					cost := max(phased.Cost(id)+int64(rng.Intn(41)-20), 0)
					phased.SetCost(id, cost)
					classic.SetCost(id, cost)
					changed = append(changed, int32(id))
				}
			}
			return changed
		}
		h, q := matchClassicRounds(t, c.name, phased, classic, 3, 6, perturb)
		handovers += h
		if strings.HasPrefix(c.name, "tree/") {
			quits += q
		}
	}
	if quits == 0 || handovers == 0 {
		t.Errorf("%d race quits on the tree family and %d resolve handovers: both rules must be covered", quits, handovers)
	}
}

// matchClassicRounds solves the twins cold and then rounds times after
// perturb (applied to both): through round fullRounds as full solves,
// the rest as forced ResolveChanged calls against resolveClassic.
// After every round both must be certified with the same cost and the
// same potentials relative to node 0.  It returns the resolves that
// handed over to phases and the races that quit.
func matchClassicRounds(t testing.TB, name string, phased, classic *Solver, fullRounds, rounds int, perturb func() []int32) (handovers, quits int64) {
	t.Helper()
	for round := 0; round <= rounds; round++ {
		tag := fmt.Sprintf("%s round %d", name, round)
		var changed []int32
		if round > 0 {
			changed = perturb()
		}
		before := phased.EngineStats()
		var gotCost, wantCost float64
		var gotErr, wantErr error
		if round <= fullRounds {
			gotCost, gotErr = phased.Solve()
			wantCost, wantErr = solveClassic(classic)
		} else {
			forceResolve(phased)
			forceResolve(classic)
			gotCost, gotErr = phased.ResolveChanged(changed)
			var fallback bool
			if wantCost, fallback, wantErr = resolveClassic(classic, changed); fallback {
				wantCost, wantErr = solveClassic(classic)
			}
			after := phased.EngineStats()
			if fell := after.FullFallbacks > before.FullFallbacks; gotErr == nil && fell != fallback {
				t.Fatalf("%s: phased fell back %v, classic %v", tag, fell, fallback)
			}
			if after.Resolves > before.Resolves && after.Phases > before.Phases {
				handovers++
			}
		}
		quits += phased.EngineStats().RaceQuits - before.RaceQuits
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: phased err %v, classic err %v", tag, gotErr, wantErr)
		}
		if gotErr != nil {
			return handovers, quits
		}
		if gotCost != wantCost {
			t.Fatalf("%s: phased cost %v != classic %v", tag, gotCost, wantCost)
		}
		if err := phased.Verify(); err != nil {
			t.Fatalf("%s: phased certificate: %v", tag, err)
		}
		if err := classic.Verify(); err != nil {
			t.Fatalf("%s: classic certificate: %v", tag, err)
		}
		for v := 1; v < phased.N(); v++ {
			got := phased.Potential(v) - phased.Potential(0)
			want := classic.Potential(v) - classic.Potential(0)
			if got != want {
				t.Fatalf("%s: node %d potential %d relative to node 0, classic %d", tag, v, got, want)
			}
		}
	}
	return handovers, quits
}

// FuzzRoutingMatchesClassic drives the classic-loop oracle with
// fuzzer-chosen instances and re-pricings: a D-phase tree or a grid
// (shape's bit 1 picks it, its high bits size it), solved cold and
// then re-priced three times by the bytes of deltas — each triple
// names an arc and a new cost — and re-solved, the first re-pricing in
// full and the next two by ResolveChanged.  Every round must match the
// per-source loop bit for bit in cost and in potentials.
func FuzzRoutingMatchesClassic(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0x01, 0x20, 0x13, 0x40, 0x07, 0x00})
	f.Add(int64(7), uint8(1), []byte{0xff, 0x00, 0x7a, 0x31, 0x02, 0x9c})
	f.Add(int64(42), uint8(2), []byte{0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18})
	f.Add(int64(3), uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, deltas []byte) {
		build := func() *Solver { return buildDPhaseTree(5+int(shape>>2)%4, seed) }
		if shape&2 != 0 {
			build = func() *Solver { return NewGridInstance(4+int(shape>>2)%12, 4+int(shape>>4)%12, seed) }
		}
		phased, classic := build(), build()
		const rounds = 3
		round := 0
		perturb := func() []int32 {
			var changed []int32
			// Re-pricing k (from 0) takes triples k, k+rounds, ….
			for i := 3 * round; i+2 < len(deltas); i += 3 * rounds {
				id := int(deltas[i]) % phased.NumArcs()
				cost := int64(deltas[i+1])<<4 | int64(deltas[i+2]&0xf)
				phased.SetCost(id, cost)
				classic.SetCost(id, cost)
				changed = append(changed, int32(id))
			}
			round++
			return changed
		}
		matchClassicRounds(t, fmt.Sprintf("seed %d shape %d", seed, shape), phased, classic, 1, rounds, perturb)
	})
}
