package core

import (
	"context"
	"testing"

	"minflo/internal/circuit"
	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/tech"
)

// BenchmarkEcoWarmQuery measures the warm query after a value-only
// edit batch: each iteration decreases the extra load on a sink gate
// and answers the next in-trust-region query with the full warm D/W
// refinement.  The decrement is scaled by b.N so the load stays in
// [18, 20) fF however long the loop runs.  Besides allocs the bench
// gate holds each row's iters/op and visited/op, the flow nodes the
// query's D-phase searches visit: a refinement that ends at the window
// the next one opens at leaves that query's first flow repair only its
// own edit to re-price.
//
// mesh10k runs at a loose 0.9·tmin spec so the seed solve stays
// sub-second.
func BenchmarkEcoWarmQuery(b *testing.B) {
	cases := []struct {
		name  string
		build func() *circuit.Circuit
		gate  func(c *circuit.Circuit) int
		spec  float64
	}{
		{"adder16", func() *circuit.Circuit { return gen.RippleAdder(16, gen.FABuffered) }, func(c *circuit.Circuit) int { return c.POs[0].Index }, 0.6},
		{"mult8", func() *circuit.Circuit { return gen.ArrayMultiplier(8) }, func(c *circuit.Circuit) int { return c.POs[0].Index }, 0.6},
		{"mesh10k", func() *circuit.Circuit { return gen.Mesh(100, 100) }, func(c *circuit.Circuit) int { return 99*100 + 99 }, 0.9},
	}
	m := delay.NewModel(tech.Default013())

	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			c := tc.build()
			e, err := dag.NewEco(c, m)
			if err != nil {
				b.Fatal(err)
			}
			sess, err := NewEcoSession(e, Options{TrustRegion: 0.1})
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			tmin := sess.sc.retime(sess.p, sess.p.InitialSizes())
			T := tc.spec * tmin
			gate := tc.gate(c)
			ctx := context.Background()
			// Pre-load the sink and solve once so every timed
			// iteration is a warm, in-trust-region re-size.
			if _, err := sess.ApplyEdits([]dag.Edit{{Op: dag.EditLoad, Gate: gate, LoadFF: 20}}); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Resize(ctx, T, Budgets{}); err != nil {
				b.Fatal(err)
			}
			step := 2.0 / float64(b.N)
			iters := 0
			var visited int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				load := 20 - step*float64(i+1)
				if _, err := sess.ApplyEdits([]dag.Edit{{Op: dag.EditLoad, Gate: gate, LoadFF: load}}); err != nil {
					b.Fatal(err)
				}
				before := sess.sc.sys.FlowEngineStats().Visited
				r, err := sess.Resize(ctx, T, Budgets{})
				if err != nil {
					b.Fatal(err)
				}
				iters += r.Iterations
				visited += sess.sc.sys.FlowEngineStats().Visited - before
			}
			b.StopTimer()
			b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
			b.ReportMetric(float64(visited)/float64(b.N), "visited/op")
		})
	}
}
