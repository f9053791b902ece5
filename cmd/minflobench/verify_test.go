package main

import (
	"strings"
	"testing"

	"minflo"
	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/sta"
)

// A correct answer passes checkSizing and every kind of perturbed answer
// is flagged.
func TestCheckSizingFlagsPerturbedAnswer(t *testing.T) {
	p, err := buildProblem("adder8", minflo.CircuitByName)
	if err != nil {
		t.Fatal(err)
	}
	dmin, err := minDelay(p)
	if err != nil {
		t.Fatal(err)
	}
	T := 0.6 * dmin
	res, err := core.Size(p, T, core.Options{FlowEngine: "ssp", Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSizing(p, res.X, T, res.Area, res.TilosArea); err != nil {
		t.Fatalf("correct answer flagged: %v", err)
	}

	// Shrinking the critical path's gates back to minimum size breaks
	// the target (the area claim is kept consistent so that only the
	// timing check can catch it).
	slow := append([]float64(nil), res.X...)
	tm, err := sta.Analyze(p.G, p.Delays(slow))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sta.CriticalPath(p.G, p.Delays(slow), tm) {
		if v < p.NumSizable {
			slow[v] = p.MinSize
		}
	}
	perturbed := []struct {
		name      string
		x         []float64
		area      float64
		tilosArea float64
		want      string
	}{
		{"critical path shrunk", slow, p.Area(slow), 0, "misses target"},
		{"size above the library maximum", with(res.X, 0, p.MaxSize*1.5), p.Area(with(res.X, 0, p.MaxSize*1.5)), 0, "outside"},
		{"size below the library minimum", with(res.X, 1, p.MinSize/2), p.Area(with(res.X, 1, p.MinSize/2)), 0, "outside"},
		{"area claim off", res.X, res.Area * 0.99, 0, "claimed area"},
		{"worse than TILOS", res.X, res.Area, res.Area * 0.99, "TILOS"},
		{"sizes missing", res.X[1:], res.Area, 0, "sizes for"},
	}
	for _, tc := range perturbed {
		err := checkSizing(p, tc.x, T, tc.area, tc.tilosArea)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

func with(x []float64, i int, v float64) []float64 {
	y := append([]float64(nil), x...)
	y[i] = v
	return y
}

// The serve check re-times on the benchmark's own edited netlist: an
// answer computed before a load edit is stale after it.
func TestCheckSizingSeesEdits(t *testing.T) {
	c, err := minflo.CircuitByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	eco, err := dag.NewEco(c, model)
	if err != nil {
		t.Fatal(err)
	}
	dmin, err := minDelay(eco.P)
	if err != nil {
		t.Fatal(err)
	}
	T := 0.6 * dmin
	res, err := core.Size(eco.P, T, core.Options{FlowEngine: "ssp", Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSizing(eco.P, res.X, T, res.Area, 0); err != nil {
		t.Fatalf("correct answer flagged: %v", err)
	}
	tm, err := sta.Analyze(eco.P.G, eco.P.Delays(res.X))
	if err != nil {
		t.Fatal(err)
	}
	path := sta.CriticalPath(eco.P.G, eco.P.Delays(res.X), tm)
	if _, err := eco.Apply([]dag.Edit{{Op: dag.EditLoad, Gate: path[1], LoadFF: 500}}); err != nil {
		t.Fatal(err)
	}
	if err := checkSizing(eco.P, res.X, T, res.Area, 0); err == nil || !strings.Contains(err.Error(), "misses target") {
		t.Errorf("pre-edit answer on the edited netlist: got %v, want a missed target", err)
	}
}
