package core

import (
	"fmt"
	"testing"

	"minflo/internal/circuit"
	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/tech"
)

// BenchmarkEcoEdit is the tentpole's perf contract: absorbing a
// single-gate netlist edit into a warm session (the "edit" rows) must
// beat tearing the session down and rebuilding it from the netlist
// (the "rebuild" rows — problem build plus D-phase scratch, which is
// what serving an edit cost before the ECO path existed).  The edit
// rows alternate a near-output gate's extra load between two values so
// every iteration patches real state; the acceptance bar is edit ≥3×
// faster than rebuild on adder16 and mult8.
func BenchmarkEcoEdit(b *testing.B) {
	cases := []struct {
		name  string
		build func() *circuit.Circuit
	}{
		{"adder16", func() *circuit.Circuit { return gen.RippleAdder(16, gen.FABuffered) }},
		{"mult8", func() *circuit.Circuit { return gen.ArrayMultiplier(8) }},
		{"mesh10k", func() *circuit.Circuit { return gen.Mesh(100, 100) }},
	}
	m := delay.NewModel(tech.Default013())
	opt := Options{}

	for _, tc := range cases {
		b.Run(fmt.Sprintf("%s/edit", tc.name), func(b *testing.B) {
			e, err := dag.NewEco(tc.build(), m)
			if err != nil {
				b.Fatal(err)
			}
			sess, err := NewEcoSession(e, opt)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			lg := e.C.NumGates() - 1
			loads := [2]float64{5, 10}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.ApplyEdits([]dag.Edit{{Op: dag.EditLoad, Gate: lg, LoadFF: loads[i%2]}}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/rebuild", tc.name), func(b *testing.B) {
			c := tc.build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := dag.NewEco(c, m)
				if err != nil {
					b.Fatal(err)
				}
				sess, err := NewEcoSession(e, opt)
				if err != nil {
					b.Fatal(err)
				}
				sess.Close()
			}
		})
	}
}
