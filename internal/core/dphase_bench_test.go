package core

import (
	"context"
	"testing"

	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/mcmf"
	"minflo/internal/sta"
	"minflo/internal/tech"
	"minflo/internal/tilos"
)

// BenchmarkDPhaseFlowTree times the D-phase flow network of a wide
// tree — gen.BalancedTree(2048) at 0.9·Dmin, priced by D/W rounds from
// the TILOS seed — on the ssp engine: the regime its primal–dual
// phases target, where one phase routes thousands of sources.  "warm"
// ops are Reset plus Solve on the network dcs built after one round.
// "resolve" ops are the tree's first incremental repair in a sizing
// run: from the flow solved at one round's prices, re-price the network
// to the next round's and time ResolveChanged.  The bench gate
// (bench_gate.json) holds the rows' allocs/op — 0, except that each
// resolve op runs on a fresh network whose bucket pool grows during
// the repair — and their work counters (dphaseWork).
func BenchmarkDPhaseFlowTree(b *testing.B) {
	m := delay.NewModel(tech.Default013())
	p, err := dag.GateLevel(gen.BalancedTree(2048), m)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		b.Fatal(err)
	}
	T := 0.9 * tm.CP
	tr, err := tilos.Size(p, T, nil, tilos.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{}.withDefaults()
	const engine = "ssp"
	b.Run(engine+"/warm", func(b *testing.B) {
		aug := p.Augment()
		sc, err := newIterScratch(p, aug, tr.X, engine)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := iterate(p, aug, sc, tr.X, T, opt.Window, opt); err != nil {
			b.Fatal(err)
		}
		// One warm solve before timing lets the scratch reach its
		// steady-state capacity.
		f := sc.sys.Network()
		f.Reset()
		if _, err := f.Solve(); err != nil {
			b.Fatal(err)
		}
		var work dphaseWork
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Reset()
			before := f.EngineStats()
			if _, err := f.Solve(); err != nil {
				b.Fatal(err)
			}
			work.add(before, f.EngineStats())
		}
		work.report(b)
	})
	b.Run(engine+"/resolve", func(b *testing.B) {
		// Size the tree, snapshotting the network's prices after
		// every round, up to the first round the engine repaired
		// incrementally: from and to are the prices of the round
		// before it and of that round.
		var sess *Session
		var from, to netPrices
		found, resolves := false, 0
		sizeOpt := Options{FlowEngine: engine, OnIteration: func(IterStats) {
			if found {
				return
			}
			f := sess.sc.sys.Network()
			from, to = to, pricesOf(f, from)
			st := f.EngineStats()
			found, resolves = st.Resolves > resolves, st.Resolves
		}}
		if sess, err = NewSession(p, sizeOpt); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Resize(context.Background(), T, Budgets{}); err != nil {
			b.Fatal(err)
		}
		if !found || from.cost == nil {
			b.Fatal("no D/W round after the first was repaired incrementally")
		}
		changed := to.changedSince(from)
		// Each op starts from a fresh network, so the resolve gate
		// sees no history of earlier ops (one op's repair would
		// price the next one out of the incremental path): priced
		// by one round from the TILOS seed, re-priced to from and
		// solved warm, then re-priced to to and repaired.
		aug := p.Augment()
		op := func(work *dphaseWork) {
			b.StopTimer()
			sc, err := newIterScratch(p, aug, tr.X, engine)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := iterate(p, aug, sc, tr.X, T, opt.Window, opt); err != nil {
				b.Fatal(err)
			}
			f := sc.sys.Network()
			from.apply(f)
			if _, err := f.Solve(); err != nil {
				b.Fatal(err)
			}
			to.apply(f)
			before := f.EngineStats()
			b.StartTimer()
			if _, err := f.ResolveChanged(changed); err != nil {
				b.Fatal(err)
			}
			after := f.EngineStats()
			if after.Resolves != before.Resolves+1 {
				b.Fatal("ResolveChanged fell back to a full solve")
			}
			work.add(before, after)
		}
		var work dphaseWork
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op(&work)
		}
		work.report(b)
	})
}

// netPrices is a snapshot of a flow network's arc costs, capacities
// and node supplies: one D/W round's pricing of the D-phase network.
type netPrices struct {
	cost, capacity, supply []int64
}

// pricesOf snapshots f into buf's storage.
func pricesOf(f *mcmf.Solver, buf netPrices) netPrices {
	np := netPrices{cost: buf.cost[:0], capacity: buf.capacity[:0], supply: buf.supply[:0]}
	for id := 0; id < f.NumArcs(); id++ {
		np.cost = append(np.cost, f.Cost(id))
		np.capacity = append(np.capacity, f.Capacity(id))
	}
	for v := 0; v < f.N(); v++ {
		np.supply = append(np.supply, f.Supply(v))
	}
	return np
}

// changedSince lists the arcs whose cost or capacity differs in prev.
func (np netPrices) changedSince(prev netPrices) []int32 {
	var changed []int32
	for id := range np.cost {
		if np.cost[id] != prev.cost[id] || np.capacity[id] != prev.capacity[id] {
			changed = append(changed, int32(id))
		}
	}
	return changed
}

// apply writes the snapshot into f; capacities are staged for the next
// solve or resolve to reconcile.
func (np netPrices) apply(f *mcmf.Solver) {
	for id, c := range np.cost {
		f.SetCost(id, c)
		f.UpdateCapacity(id, np.capacity[id])
	}
	for v, b := range np.supply {
		f.SetSupply(v, b)
	}
}

// dphaseWork sums a flow engine's work counters over a benchmark's ops
// and reports them per op: deterministic counters the bench gate holds
// where ns/op would only measure the host.  Each op is read around its
// own run because Solver.Reset zeroes Visited.
type dphaseWork struct{ visited, augs, phases, races, quits int64 }

func (w *dphaseWork) add(before, after mcmf.Stats) {
	w.visited += after.Visited - before.Visited
	w.augs += after.Augmentations - before.Augmentations
	w.phases += after.Phases - before.Phases
	w.races += after.Races - before.Races
	w.quits += after.RaceQuits - before.RaceQuits
}

func (w *dphaseWork) report(b *testing.B) {
	n := float64(b.N)
	b.ReportMetric(float64(w.visited)/n, "visited/op")
	b.ReportMetric(float64(w.augs)/n, "augs/op")
	b.ReportMetric(float64(w.phases)/n, "phases/op")
	b.ReportMetric(float64(w.races)/n, "races/op")
	b.ReportMetric(float64(w.quits)/n, "racequits/op")
}
