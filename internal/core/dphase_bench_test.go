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

// BenchmarkDPhaseFlowTree times a warm full solve of a wide tree's
// D-phase flow network — gen.BalancedTree(2048) at 0.9·Dmin, priced by
// one D/W round from the TILOS seed — on both SSP engines: the regime
// their primal–dual phases target, where one phase routes thousands of
// sources.  Each op is Reset plus Solve on the network dcs built.  The
// bench gate (bench_gate.json) holds the rows' 0 allocs/op and their
// visited/op, augs/op and phases/op.
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
	for _, engine := range []string{"ssp", "dial"} {
		engine := engine
		b.Run(engine+"/warm", func(b *testing.B) {
			aug := p.Augment()
			sc, err := newIterScratch(p, aug, tr.X, engine)
			if err != nil {
				b.Fatal(err)
			}
			opt := Options{}.withDefaults()
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
			var visited, augs, phases int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Reset()
				before := f.EngineStats()
				if _, err := f.Solve(); err != nil {
					b.Fatal(err)
				}
				after := f.EngineStats()
				visited += after.Visited - before.Visited
				augs += after.Augmentations - before.Augmentations
				phases += after.Phases - before.Phases
			}
			b.ReportMetric(float64(visited)/float64(b.N), "visited/op")
			b.ReportMetric(float64(augs)/float64(b.N), "augs/op")
			b.ReportMetric(float64(phases)/float64(b.N), "phases/op")
		})
	}
}
