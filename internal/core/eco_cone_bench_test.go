package core

import (
	"context"
	"fmt"
	"testing"

	"minflo/internal/circuit"
	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/tech"
)

// BenchmarkEcoConeResize is the cone-local re-sizing perf contract:
// after a value-only edit batch, answering the next in-trust-region
// query from a cone-scoped subproblem against frozen boundary arrivals
// (the "cone" rows) must beat re-running the full warm D/W loop (the
// "full" rows).  Each iteration decreases the extra load on a sink
// gate — monotone decreases keep the cone tiny (the slack freed by the
// edit never violates upstream paths, so recruitment stops at the
// forward closure), which is the regime the cone path exists for.  The
// decrement is scaled by b.N so the load stays in [18, 20) fF however
// long the loop runs: the whole sweep spans 2 fF, because one huge
// decrease frees enough slack along mesh10k's 199-level paths to
// recruit past the cone budget.  The acceptance bar is cone ≥5× faster
// than full
// on mesh10k, held by the bench gate as a same-run ratio next to each
// row's iters/op; a fallback in a cone row is a behavioral regression
// and fails the benchmark outright.
//
// mesh10k runs at a loose 0.9·tmin spec so the seed solve stays
// sub-second; the cone/full gap is about path depth, not how tight the
// target is.
func BenchmarkEcoConeResize(b *testing.B) {
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
		for _, mode := range []string{"cone", "full"} {
			b.Run(fmt.Sprintf("%s/%s", tc.name, mode), func(b *testing.B) {
				c := tc.build()
				e, err := dag.NewEco(c, m)
				if err != nil {
					b.Fatal(err)
				}
				opt := Options{TrustRegion: 0.1, EditConeResize: mode == "cone"}
				sess, err := NewEcoSession(e, opt)
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
				iters, fallbacks := 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					load := 20 - step*float64(i+1)
					if _, err := sess.ApplyEdits([]dag.Edit{{Op: dag.EditLoad, Gate: gate, LoadFF: load}}); err != nil {
						b.Fatal(err)
					}
					r, err := sess.Resize(ctx, T, Budgets{})
					if err != nil {
						b.Fatal(err)
					}
					iters += r.Iterations
					if r.ConeFallback {
						fallbacks++
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
				if mode == "cone" && fallbacks > 0 {
					b.Fatalf("cone mode fell back %d/%d iterations", fallbacks, b.N)
				}
			})
		}
	}
}
