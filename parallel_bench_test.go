// Bench-gate rows on the two wide problems: the W-phase sweep plus
// sensitivity solve on an 8k-gate tree, and an end-to-end core.Size on
// the 10k-gate mesh.  Both runs are serial; the names (and the /j1
// suffix) date from the intra-run worker budgets these benchmarks
// once swept, and stay so the rows' recorded baselines in
// bench_gate.json keep meaning the same thing.
package minflo

import (
	"testing"

	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/lin"
	"minflo/internal/smp"
	"minflo/internal/sta"
	"minflo/internal/tech"
	"minflo/internal/tilos"
)

// BenchmarkParallelWPhase measures the W-phase sweep plus sensitivity
// solve on a wide balanced tree (4096-block levels).
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
	b.Run("tree8k/j1", func(b *testing.B) {
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
	})
}

// BenchmarkParallelSize is the end-to-end row at a CI-friendly size:
// one op = a full core.Size (TILOS + D/W iteration) on the 10k-gate
// mesh.  The full-scale mesh102k run lives in BenchmarkScalingLarge
// (excluded from the bench gate).  iters/op is the D/W iteration
// count, a deterministic work counter the gate holds.
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
	b.Run("mesh10k/j1", func(b *testing.B) {
		iters := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := core.Size(p, T, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			iters += r.Iterations
		}
		b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	})
}
