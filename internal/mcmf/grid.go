package mcmf

import "math/rand"

// NewGridInstance builds a D-phase-shaped benchmark instance: a layered
// DAG with backbone arcs guaranteeing feasibility, random cross arcs,
// supplies on the first layer and balancing demands on the last.  It is
// the shared workload of BenchmarkMCMF (package minflo), the in-package
// solver benchmarks, and the ssp/cost-scaling equivalence tests, so
// the oracle comparison and the bench gate's flow rows all measure the
// same shape of problem the D-phase produces.
func NewGridInstance(layers, width int, seed int64) *Solver {
	rng := rand.New(rand.NewSource(seed))
	n := layers * width
	s := New(n)
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			u := l*width + i
			// Backbone arcs guarantee feasibility regardless of the
			// random extras: straight ahead and one lane over.
			s.AddArc(u, (l+1)*width+i, 1_000_000, 900)
			s.AddArc(u, (l+1)*width+(i+1)%width, 1_000_000, 900)
			for k := 0; k < 3; k++ {
				v := (l+1)*width + rng.Intn(width)
				s.AddArc(u, v, 1_000_000, int64(rng.Intn(1000)))
			}
		}
	}
	for i := 0; i < width; i++ {
		s.SetSupply(i, int64(10+rng.Intn(50)))
	}
	tot := int64(0)
	for i := 0; i < width; i++ {
		tot += s.Supply(i)
	}
	for i := 0; i < width; i++ {
		v := (layers-1)*width + i
		share := tot / int64(width)
		s.SetSupply(v, -share)
		tot -= share
	}
	s.AddSupply((layers-1)*width, -tot)
	return s
}
