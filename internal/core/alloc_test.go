package core

import (
	"testing"

	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/sta"
	"minflo/internal/tech"
	"minflo/internal/tilos"
)

// TestIterateSteadyStateZeroAlloc asserts the headline property of the
// W-phase/coupling-structure overhaul: once the per-problem scratch is
// built, a full D-phase + W-phase round (timing, balancing,
// sensitivities, min-cost-flow dual, SMP re-solve, incremental retime)
// performs zero heap allocations on the ssp flow engine, including
// the incremental ResolveChanged D-phase path.
func TestIterateSteadyStateZeroAlloc(t *testing.T) {
	const engine = "ssp"
	t.Run(engine, func(t *testing.T) {
		m := delay.NewModel(tech.Default013())
		p, err := dag.GateLevel(gen.C432(), m)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
		if err != nil {
			t.Fatal(err)
		}
		T := 0.5 * tm.CP
		tr, err := tilos.Size(p, T, nil, tilos.Options{})
		if err != nil {
			t.Fatal(err)
		}
		x := tr.X
		aug := p.Augment()
		sc, err := newIterScratch(p, aug, x)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{}.withDefaults()

		// Warm up: let every reused slice reach steady-state capacity
		// (this includes the radix heap's entry pool).
		for i := 0; i < 3; i++ {
			st, err := iterate(p, aug, sc, x, T, opt.Window, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Repaired {
				t.Fatal("repair path hit during warmup; pick a workload without MaxSize clamping")
			}
		}

		allocs := testing.AllocsPerRun(10, func() {
			if _, err := iterate(p, aug, sc, x, T, opt.Window, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state D/W iteration allocates %.1f objects per round, want 0", allocs)
		}
		if st := sc.sys.FlowEngineStats(); st.Resolves == 0 {
			t.Fatal("steady-state iterations never took the incremental re-flow path")
		}
	})
}

// TestIterateZeroAllocTransistorLevel repeats the assertion on a
// transistor-level problem, where the SMP blocks are non-trivial and
// the dense in-place LU path of lin is exercised.
func TestIterateZeroAllocTransistorLevel(t *testing.T) {
	m := delay.NewModel(tech.Default013())
	p, err := dag.TransistorLevel(gen.RippleAdder(4, gen.FAXor), m)
	if err != nil {
		t.Fatal(err)
	}
	if p.CSR().MaxBlock() < 2 {
		t.Fatal("expected non-trivial SCC blocks at transistor level")
	}
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		t.Fatal(err)
	}
	T := 0.6 * tm.CP
	tr, err := tilos.Size(p, T, nil, tilos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := tr.X
	aug := p.Augment()
	sc, err := newIterScratch(p, aug, x)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{}.withDefaults()
	repaired := false
	for i := 0; i < 3; i++ {
		st, err := iterate(p, aug, sc, x, T, opt.Window, opt)
		if err != nil {
			t.Fatal(err)
		}
		repaired = st.Repaired
	}
	if repaired {
		t.Skip("repair path active at this operating point; steady state not reachable")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := iterate(p, aug, sc, x, T, opt.Window, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("transistor-level D/W iteration allocates %.1f objects per round, want 0", allocs)
	}
}
