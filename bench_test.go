// Benchmark harness regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`; see EXPERIMENTS.md
// for the recorded results and the paper-vs-measured comparison).
//
//   - BenchmarkTable1/<circuit>   — one op = one RunTableRow at the
//     row's delay spec (MINFLOTRANSIT, whose TILOS seed is the TILOS
//     column); reported metrics: area saving %, both areas, iteration
//     count, and the TILOS-relative runtime.
//   - BenchmarkFigure7C432 / C6288 — one op = both optimizers across the
//     full delay sweep of one Figure 7 panel.
//   - BenchmarkScalingAdder/<bits> — §3 run-time growth claim.
//   - BenchmarkAblation*           — design-choice sweeps from DESIGN.md §5.
//   - BenchmarkMCMF / BenchmarkSTA / BenchmarkTilos — substrate
//     micro-benchmarks.
//
// BenchmarkMCMF, BenchmarkSTA, BenchmarkTilos and BenchmarkWPhase are
// rows of the bench gate (bench_gate.json, run by cmd/mkbench -gate);
// the paper-reproduction benchmarks are not gated.
package minflo

import (
	"fmt"
	"testing"

	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/lin"
	"minflo/internal/mcmf"
	"minflo/internal/smp"
	"minflo/internal/sta"
	"minflo/internal/tech"
	"minflo/internal/tilos"
)

// runRow executes one Table-1 row and reports custom metrics.
func runRow(b *testing.B, name string, spec float64) {
	b.Helper()
	ckt, err := CircuitByName(name)
	if err != nil {
		b.Fatal(err)
	}
	sz, err := NewSizer(nil)
	if err != nil {
		b.Fatal(err)
	}
	var last *TableRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := sz.RunTableRow(ckt, spec)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.StopTimer()
	b.ReportMetric(last.SavingsPct, "saved%")
	b.ReportMetric(last.MinfloArea, "area")
	b.ReportMetric(last.TilosArea, "tilosArea")
	b.ReportMetric(float64(last.Iterations), "iters")
	b.ReportMetric(last.AreaRatio, "areaRatio")
	tot := last.TilosTime + last.MinfloExtra
	b.ReportMetric(float64(tot)/float64(last.TilosTime), "t/tTILOS")
}

// BenchmarkTable1 reproduces every row of Table 1 at the paper's specs.
func BenchmarkTable1(b *testing.B) {
	for _, name := range BenchmarkNames() {
		name := name
		b.Run(name, func(b *testing.B) { runRow(b, name, PaperSpec(name)) })
	}
}

// figure7 sweeps one panel of Figure 7.
func figure7(b *testing.B, circuit string) {
	ckt, err := CircuitByName(circuit)
	if err != nil {
		b.Fatal(err)
	}
	sz, _ := NewSizer(nil)
	fracs := []float64{0.40, 0.50, 0.60, 0.80, 1.00}
	var pts []TradeoffPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err = sz.Sweep(ckt, fracs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Report the steep-end gap (the paper highlights 14.2% for c6288 at
	// 0.5·Dmin) and the curve integral difference.
	for _, pt := range pts {
		if pt.Feasible && pt.Frac == 0.50 {
			b.ReportMetric(100*(1-pt.MinfloRatio/pt.TilosRatio), "saved%@0.5")
		}
	}
}

// BenchmarkFigure7C432 regenerates the left panel of Figure 7.
func BenchmarkFigure7C432(b *testing.B) { figure7(b, "c432") }

// BenchmarkFigure7C6288 regenerates the right panel of Figure 7.
func BenchmarkFigure7C6288(b *testing.B) { figure7(b, "c6288") }

// BenchmarkScalingAdder measures run-time growth across adder widths
// (§3: near-linear dependence on circuit size, MINFLOTRANSIT within a
// small multiple of TILOS).
func BenchmarkScalingAdder(b *testing.B) {
	for _, bits := range []int{16, 32, 64, 128} {
		bits := bits
		b.Run(fmt.Sprintf("%dbit", bits), func(b *testing.B) {
			runRow(b, fmt.Sprintf("adder%d", bits), 0.5)
		})
	}
}

// BenchmarkScalingLarge runs the generated large-circuit suite —
// deep meshes and wide trees from 8k to 102k gates — end-to-end
// (TILOS + MINFLOTRANSIT at 0.9·Dmin), the §3 run-time-growth claim
// well beyond ISCAS85 sizes.  One full pass takes about a minute; run
// it explicitly (it is excluded from the default snapshot regex).
func BenchmarkScalingLarge(b *testing.B) {
	cases := []struct {
		name string
		mk   func() *Circuit
	}{
		{"mesh10k", func() *Circuit { return gen.Mesh(100, 100) }},
		{"mesh20k", func() *Circuit { return gen.Mesh(140, 140) }},
		{"mesh31k", func() *Circuit { return gen.Mesh(175, 175) }},
		{"mesh102k", func() *Circuit { return gen.Mesh(320, 320) }},
		{"tree8k", func() *Circuit { return gen.BalancedTree(1 << 13) }},
		{"tree16k", func() *Circuit { return gen.BalancedTree(1 << 14) }},
		{"tree33k", func() *Circuit { return gen.BalancedTree(1 << 15) }},
	}
	m := delay.NewModel(tech.Default013())
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			p, err := dag.GateLevel(tc.mk(), m)
			if err != nil {
				b.Fatal(err)
			}
			tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
			if err != nil {
				b.Fatal(err)
			}
			T := 0.9 * tm.CP
			var last *core.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last, err = core.Size(p, T, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(p.NumSizable), "gates")
			b.ReportMetric(float64(last.Iterations), "iters")
			b.ReportMetric(100*(1-last.Area/last.TilosArea), "saved%")
		})
	}
}

// BenchmarkAblationWindow sweeps the D-phase budget window η: small
// windows track the Taylor model faithfully but converge slowly; large
// windows overshoot (DESIGN.md §3.1).
func BenchmarkAblationWindow(b *testing.B) {
	m := delay.NewModel(tech.Default013())
	p, err := dag.GateLevel(gen.C432(), m)
	if err != nil {
		b.Fatal(err)
	}
	tm, _ := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	T := 0.4 * tm.CP
	for _, window := range []float64{0.02, 0.05, 0.1, 0.2, 0.4} {
		window := window
		b.Run(fmt.Sprintf("eta%.2f", window), func(b *testing.B) {
			var last *core.Result
			for i := 0; i < b.N; i++ {
				r, err := core.Size(p, T, core.Options{Window: window})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(100*(1-last.Area/last.TilosArea), "saved%")
			b.ReportMetric(float64(last.Iterations), "iters")
		})
	}
}

// BenchmarkAblationBump sweeps the TILOS bump factor: the paper uses
// 1.1; coarser bumps give worse starting points that MINFLOTRANSIT must
// recover from.
func BenchmarkAblationBump(b *testing.B) {
	m := delay.NewModel(tech.Default013())
	p, err := dag.GateLevel(gen.C432(), m)
	if err != nil {
		b.Fatal(err)
	}
	tm, _ := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	T := 0.4 * tm.CP
	for _, bump := range []float64{1.05, 1.1, 1.2, 1.5} {
		bump := bump
		b.Run(fmt.Sprintf("bump%.2f", bump), func(b *testing.B) {
			var last *core.Result
			for i := 0; i < b.N; i++ {
				r, err := core.Size(p, T, core.Options{Tilos: tilos.Options{Bump: bump}})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(100*(1-last.Area/last.TilosArea), "saved%")
			b.ReportMetric(last.Area, "area")
			b.ReportMetric(last.TilosArea, "tilosArea")
		})
	}
}

// BenchmarkAblationScale sweeps the D-phase integerization scale (the
// paper: "by choosing appropriate powers of 10 arbitrary accuracy can
// be maintained with almost no penalty").
func BenchmarkAblationScale(b *testing.B) {
	m := delay.NewModel(tech.Default013())
	p, err := dag.GateLevel(gen.C432(), m)
	if err != nil {
		b.Fatal(err)
	}
	tm, _ := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	T := 0.4 * tm.CP
	for _, scale := range []float64{1e3, 1e4, 1e6, 1e8} {
		scale := scale
		b.Run(fmt.Sprintf("scale1e%.0f", logTen(scale)), func(b *testing.B) {
			var last *core.Result
			for i := 0; i < b.N; i++ {
				r, err := core.Size(p, T, core.Options{CostScale: scale})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(100*(1-last.Area/last.TilosArea), "saved%")
		})
	}
}

func logTen(x float64) float64 {
	n := 0.0
	for x >= 10 {
		x /= 10
		n++
	}
	return n
}

// BenchmarkTransistorLevel sizes c17 on the per-transistor DAG — the
// general problem of paper §2.1 (Table 1 itself is gate sizing).
func BenchmarkTransistorLevel(b *testing.B) {
	sz, _ := NewSizer(nil)
	ckt := C17()
	dmin, err := sz.TransistorMinDelay(ckt)
	if err != nil {
		b.Fatal(err)
	}
	var last *DeviceSizing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = sz.MinflotransitTransistors(ckt, 0.55*dmin)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(100*(1-last.Area/last.TilosArea), "saved%")
}

// BenchmarkWireSizing runs joint gate+wire sizing (paper §2.1).
func BenchmarkWireSizing(b *testing.B) {
	sz, _ := NewSizer(nil)
	ckt := RippleAdder(8, FAXor)
	wp := DefaultWireParams()
	dmin, err := sz.WiredMinDelay(ckt, wp)
	if err != nil {
		b.Fatal(err)
	}
	var last *WireSizing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = sz.MinflotransitWithWires(ckt, 0.55*dmin, wp)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(100*(1-last.Area/last.TilosArea), "saved%")
}

// BenchmarkMCMF measures the min-cost-flow substrate on a
// D-phase-shaped layered instance (mcmf.NewGridInstance, 1000 nodes /
// ~4900 arcs).  "fresh" builds the network and solves, one op per
// build — the per-problem cost.  "warm" re-solves one network through
// the Reset warm-start path — the per-iteration cost of the D/W loop,
// which must be allocation-free (internal/mcmf TestWarmResolveAllocFree
// asserts 0 allocs).  Both rows are in the bench gate
// (bench_gate.json, cmd/mkbench -gate; see EXPERIMENTS.md), which
// holds warm at 0 allocs/op.
func BenchmarkMCMF(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := mcmf.NewGridInstance(40, 25, 7)
			if _, err := s.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := mcmf.NewGridInstance(40, 25, 7)
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Reset()
			if _, err := s.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSTA measures the timing-analysis substrate on the largest
// suite circuit.
func BenchmarkSTA(b *testing.B) {
	m := delay.NewModel(tech.Default013())
	p, err := dag.GateLevel(gen.C7552(), m)
	if err != nil {
		b.Fatal(err)
	}
	x := p.InitialSizes()
	d := p.Delays(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sta.Analyze(p.G, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTilos times one TILOS run from minimum sizes — the seed of
// every cold MINFLOTRANSIT run and the Table-1 baseline — on c7552 at
// its paper spec and on tree8192 at the scaling workload's 0.9·Dmin.
// moves/op (tilos.Result.Moves) pins the greedy trajectory: a changed
// move sequence moves it, and an allocation in the move loop scales
// allocs/op with it.
func BenchmarkTilos(b *testing.B) {
	cases := []struct {
		name string
		mk   func() *Circuit
		spec float64
	}{
		{"c7552", gen.C7552, PaperSpec("c7552")},
		{"tree8192", func() *Circuit { return gen.BalancedTree(1 << 13) }, 0.9},
	}
	m := delay.NewModel(tech.Default013())
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			p, err := dag.GateLevel(tc.mk(), m)
			if err != nil {
				b.Fatal(err)
			}
			tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
			if err != nil {
				b.Fatal(err)
			}
			var last *tilos.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if last, err = tilos.Size(p, tc.spec*tm.CP, nil, tilos.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(last.Moves), "moves/op")
		})
	}
}

// BenchmarkDPhase isolates one D-phase round (balance + sensitivities +
// min-cost-flow dual) on c432 — the paper's headline machinery.
func BenchmarkDPhase(b *testing.B) {
	m := delay.NewModel(tech.Default013())
	p, err := dag.GateLevel(gen.C432(), m)
	if err != nil {
		b.Fatal(err)
	}
	tm, _ := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	T := 0.4 * tm.CP
	tr, err := tilos.Size(p, T, nil, tilos.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One full D+W iteration from the TILOS point.
		if _, err := core.Size(p, T, core.Options{MaxIters: 1, Tilos: tilos.Options{}}); err != nil {
			b.Fatal(err)
		}
	}
	_ = tr
}

// BenchmarkWPhase isolates one W-phase round — an SMP solve for fresh
// budgets plus the area-sensitivity computation the next D-phase needs
// (companion to BenchmarkDPhase) — on c432 at a TILOS starting point.
func BenchmarkWPhase(b *testing.B) {
	m := delay.NewModel(tech.Default013())
	p, err := dag.GateLevel(gen.C432(), m)
	if err != nil {
		b.Fatal(err)
	}
	tm, _ := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	T := 0.4 * tm.CP
	tr, err := tilos.Size(p, T, nil, tilos.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// Budgets: the per-vertex delays of the TILOS solution (a feasible
	// budget vector by construction).
	d := p.Delays(tr.X)[:p.NumSizable]
	for i := range d {
		d[i] *= 1.0000001 // strictly above intrinsic for the solvers
	}
	// The optimizer's per-problem setup: persistent solvers over the
	// shared CSR, scratch reused across rounds.
	ws := smp.NewSolver(p.CSR())
	ls := lin.NewSolver(p.CSR())
	x := make([]float64, p.NumSizable)
	sens := make([]float64, p.NumSizable)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := ws.SolveInto(x, d, p.MinSize, p.MaxSize, smp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := ls.SensitivitiesInto(sens, w.X, d, p.AreaW); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVsLagrangian compares MINFLOTRANSIT against the
// Lagrangian-relaxation optimizer of the paper's reference [8] — the
// exact-method competitor discussed in §1.
func BenchmarkVsLagrangian(b *testing.B) {
	sz, _ := NewSizer(nil)
	ckt, err := CircuitByName("c432")
	if err != nil {
		b.Fatal(err)
	}
	dmin, err := sz.MinDelay(ckt)
	if err != nil {
		b.Fatal(err)
	}
	T := 0.4 * dmin
	b.Run("minflotransit", func(b *testing.B) {
		var last *Sizing
		for i := 0; i < b.N; i++ {
			last, err = sz.Minflotransit(ckt.Clone(), T)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(last.Area, "area")
	})
	b.Run("lagrangian", func(b *testing.B) {
		var last *Sizing
		for i := 0; i < b.N; i++ {
			last, err = sz.LagrangianRelaxation(ckt.Clone(), T)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(last.Area, "area")
	})
}
