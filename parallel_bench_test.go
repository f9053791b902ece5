// Benchmarks for intra-run parallelism: the level-parallel W-phase and
// an end-to-end parallel core.Size.  BenchmarkParallelWPhase and
// BenchmarkParallelSize are rows of the bench gate (bench_gate.json).
//
// Worker budgets are explicit (j1/j2/j4) rather than GOMAXPROCS so
// the benchmark names — and therefore the regression baselines — mean
// the same thing on every machine.  On a single-core host the j>1
// variants measure scheduling overhead, not speedup; see
// EXPERIMENTS.md "Intra-run parallelism".
package minflo

import (
	"fmt"
	"testing"

	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/lin"
	"minflo/internal/par"
	"minflo/internal/smp"
	"minflo/internal/sta"
	"minflo/internal/tech"
	"minflo/internal/tilos"
)

// BenchmarkParallelWPhase measures the level-parallel W-phase sweep
// plus sensitivity solve on a wide balanced tree (4096-block levels),
// the shape where level parallelism has real fan-out.
func BenchmarkParallelWPhase(b *testing.B) {
	m := delay.NewModel(tech.Default013())
	p, err := dag.GateLevel(gen.BalancedTree(1<<13), m)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := tilos.Size(p, 0.9*tm.CP, nil, tilos.Options{})
	if err != nil {
		b.Fatal(err)
	}
	d := p.Delays(tr.X)[:p.NumSizable]
	for i := range d {
		d[i] *= 1.0000001
	}
	for _, j := range []int{1, 2, 4} {
		j := j
		b.Run(fmt.Sprintf("tree8k/j%d", j), func(b *testing.B) {
			pool := par.New(j)
			defer pool.Close()
			ws := smp.NewSolver(p.CSR())
			ls := lin.NewSolver(p.CSR())
			ws.SetParallel(pool)
			ls.SetParallel(pool)
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
		})
	}
}

// BenchmarkParallelSize is the end-to-end acceptance benchmark at a
// CI-friendly size: one op = a full core.Size (TILOS + D/W iteration)
// on the 10k-gate mesh, serial versus a 4-worker budget.  The
// full-scale mesh102k run lives in BenchmarkScalingLarge (excluded
// from the bench gate).  The flow engine is pinned to "dial" (also the
// default) so the rows keep measuring the same D-phase backend if the
// default ever changes.  iters/op is the D/W iteration count, a
// deterministic work counter the gate holds.
func BenchmarkParallelSize(b *testing.B) {
	m := delay.NewModel(tech.Default013())
	p, err := dag.GateLevel(gen.Mesh(100, 100), m)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		b.Fatal(err)
	}
	T := 0.9 * tm.CP
	for _, j := range []int{1, 4} {
		j := j
		b.Run(fmt.Sprintf("mesh10k/j%d", j), func(b *testing.B) {
			iters := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := core.Size(p, T, core.Options{FlowEngine: "dial", Parallelism: j})
				if err != nil {
					b.Fatal(err)
				}
				iters += r.Iterations
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
		})
	}
}

// BenchmarkScalingParallel is the full-scale end-to-end run of the
// acceptance criterion: mesh102k through core.Size, serial versus a
// 4-worker budget (dial D-phase pinned + level-parallel W-phase).
// Excluded from the bench gate like BenchmarkScalingLarge; see
// EXPERIMENTS.md "Intra-run parallelism".
func BenchmarkScalingParallel(b *testing.B) {
	m := delay.NewModel(tech.Default013())
	p, err := dag.GateLevel(gen.Mesh(320, 320), m)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		b.Fatal(err)
	}
	T := 0.9 * tm.CP
	for _, j := range []int{1, 4} {
		j := j
		b.Run(fmt.Sprintf("mesh102k/j%d", j), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Size(p, T, core.Options{FlowEngine: "dial", Parallelism: j}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
