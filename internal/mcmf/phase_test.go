package mcmf

import (
	"fmt"
	"math/rand"
	"testing"
)

// solveClassic is the full solve with the per-source loop routing
// every supply and no primal–dual phases: the reference the phased
// solveSSPFull is held to.
func solveClassic(s *Solver, pf pathFinder) (float64, error) {
	var st Stats
	if err := s.beginSolve(&st); err != nil {
		return 0, err
	}
	s.ensureSSP()
	excess := s.excess[:s.n]
	copy(excess, s.supply)
	s.flowDirty = true
	s.repairable = false
	if err := s.augmentAll(excess, pf, &st); err != nil {
		return 0, err
	}
	s.markSolved()
	return s.TotalCost(), nil
}

// classicFinder returns the path finder the named SSP engine uses.
func classicFinder(engine string) pathFinder {
	if engine == "dial" {
		return &dialFinder{st: &Stats{}}
	}
	return heapFinder{}
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

// TestPhasesMatchClassicLoop is the oracle for primal–dual phases: on
// the conformance suite's random, grid and degenerate instances, a
// phased full solve and the per-source loop must reach the same
// optimal cost, both certified by Verify, with the same potentials
// relative to node 0 — cold, and again after three rounds of warm cost
// perturbations.  The potentials are the D-phase duals internal/dcs
// turns into answers, so equal potentials are what keeps sizing
// answers bit-identical.
func TestPhasesMatchClassicLoop(t *testing.T) {
	for _, engine := range []string{"ssp", "dial"} {
		for _, c := range oracleCases() {
			phased, classic := c.build(), c.build()
			if err := phased.SetEngine(engine); err != nil {
				t.Fatal(err)
			}
			pf := classicFinder(engine)
			rng := rand.New(rand.NewSource(int64(len(c.name))))
			for round := 0; round < 4; round++ {
				tag := fmt.Sprintf("%s %s round %d", engine, c.name, round)
				if round > 0 {
					// Warm cost perturbation, applied to both twins.
					for id := 0; id < phased.NumArcs(); id++ {
						if rng.Intn(4) == 0 {
							cost := phased.Cost(id) + int64(rng.Intn(41)-20)
							if cost < 0 {
								cost = 0
							}
							phased.SetCost(id, cost)
							classic.SetCost(id, cost)
						}
					}
				}
				gotCost, gotErr := phased.Solve()
				wantCost, wantErr := solveClassic(classic, pf)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: phased err %v, classic err %v", tag, gotErr, wantErr)
				}
				if gotErr != nil {
					break
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
		}
	}
}
