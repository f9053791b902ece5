package main

import (
	"fmt"
	"math"

	"minflo/internal/dag"
	"minflo/internal/sta"
)

// cpSlack is the relative critical-path tolerance every answer is held
// to — the one core itself accepts a sizing with.
const cpSlack = 1e-9

// checkSizing is the benchmark's own check of one answer: sizes x,
// claimed area, for target T on problem p (built by the benchmark, not
// taken from the solver).  It re-times x with a fresh static timing
// analysis and checks that the target is met, every size lies within
// the library bounds, and the claimed area is the area of x.  A
// positive tilosArea also requires the answer to be no larger than the
// TILOS baseline it started from.
func checkSizing(p *dag.Problem, x []float64, T, area, tilosArea float64) error {
	if len(x) != p.NumSizable {
		return fmt.Errorf("%d sizes for %d gates", len(x), p.NumSizable)
	}
	for i, v := range x {
		if !(v >= p.MinSize && v <= p.MaxSize) {
			return fmt.Errorf("gate %d size %g outside [%g, %g]", i, v, p.MinSize, p.MaxSize)
		}
	}
	tm, err := sta.Analyze(p.G, p.Delays(x))
	if err != nil {
		return fmt.Errorf("re-time: %w", err)
	}
	if tm.CP > T*(1+cpSlack) {
		return fmt.Errorf("critical path %g misses target %g", tm.CP, T)
	}
	if a := p.Area(x); math.Abs(a-area) > 1e-12*math.Abs(a) {
		return fmt.Errorf("claimed area %g, sizes give %g", area, a)
	}
	if tilosArea > 0 && area > tilosArea*(1+1e-12) {
		return fmt.Errorf("area %g above the TILOS baseline %g", area, tilosArea)
	}
	return nil
}

// minDelay is Dmin, the critical path with every gate at minimum size.
func minDelay(p *dag.Problem) (float64, error) {
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		return 0, err
	}
	return tm.CP, nil
}

// sameBits reports whether two size vectors are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
