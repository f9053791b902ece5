package core

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/mcmf"
	"minflo/internal/sta"
	"minflo/internal/tech"
)

// sizeOnce runs the optimizer on problem p at spec·Dmin with the given
// flow engine and worker budget, returning the full result.
func sizeOnce(t *testing.T, p *dag.Problem, spec float64, engine string, parallelism int) *Result {
	t.Helper()
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Size(p, spec*tm.CP, Options{FlowEngine: engine, Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// diffResults demands bit-identical outcomes: sizes, area, CP,
// iteration count, and the per-iteration trajectory (objective, area,
// CP, clamp counts, window schedule, flow engine and flow-resolve
// counts).
func diffResults(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if got.Area != want.Area || got.CP != want.CP || got.Iterations != want.Iterations {
		t.Fatalf("%s: area/CP/iters %v/%v/%d, serial %v/%v/%d",
			tag, got.Area, got.CP, got.Iterations, want.Area, want.CP, want.Iterations)
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("%s: x[%d] = %v, serial %v", tag, i, got.X[i], want.X[i])
		}
	}
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: %d iterations traced, serial %d", tag, len(got.Stats), len(want.Stats))
	}
	for i := range want.Stats {
		w, g := want.Stats[i], got.Stats[i]
		if g.Area != w.Area || g.CP != w.CP || g.Objective != w.Objective ||
			g.Window != w.Window || g.Clamped != w.Clamped || g.Repaired != w.Repaired ||
			g.FlowEngine != w.FlowEngine || g.FlowResolves != w.FlowResolves {
			t.Fatalf("%s: iteration %d diverged: %+v, serial %+v", tag, i+1, g, w)
		}
	}
}

// TestParallelMatchesSerialRandom is the end-to-end determinism gate
// of the intra-run parallelism work: across 100+ random logic
// instances and GOMAXPROCS ∈ {1, 2, 4, 8}, a fully parallel core.Size
// (level-parallel W-phase and sensitivity solves) must be
// bit-identical to the serial run — same areas, same iteration
// counts, same sizes, same per-iteration trajectory.  The default
// engine selections ("" and "auto") must reproduce a pinned "dial"
// run bit for bit.
func TestParallelMatchesSerialRandom(t *testing.T) {
	m := delay.NewModel(tech.Default013())
	count := 0
	for seed := int64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ckt := gen.RandomLogic(4+rng.Intn(6), 30+rng.Intn(40), seed)
		p, err := dag.GateLevel(ckt, m)
		if err != nil {
			t.Fatal(err)
		}
		spec := 0.55 + 0.3*rng.Float64()
		want := sizeOnce(t, p, spec, "dial", 1)
		for _, procs := range []int{1, 2, 4, 8} {
			old := runtime.GOMAXPROCS(procs)
			got := sizeOnce(t, p, spec, "dial", procs)
			runtime.GOMAXPROCS(old)
			diffResults(t, ckt.Name, want, got)
		}
		for _, name := range []string{"", "auto"} {
			diffResults(t, ckt.Name+" engine "+strconv.Quote(name), want, sizeOnce(t, p, spec, name, 2))
		}
		count++
	}
	if count < 100 {
		t.Fatalf("only %d instances exercised, want >= 100", count)
	}
}

// TestParallelMatchesSerialLarge covers the regime the random suite
// cannot: problems big enough that every parallel path really engages
// (on the wide tree, the level-parallel W-phase above its 128-block
// floor).  The transistor
// problem adds SCC blocks (dense-block sensitivity path).
func TestParallelMatchesSerialLarge(t *testing.T) {
	m := delay.NewModel(tech.Default013())
	cases := []struct {
		name string
		mk   func() (*dag.Problem, error)
		spec float64
	}{
		{"mesh1600", func() (*dag.Problem, error) { return dag.GateLevel(gen.Mesh(40, 40), m) }, 0.9},
		{"tree4k", func() (*dag.Problem, error) { return dag.GateLevel(gen.BalancedTree(1<<12), m) }, 0.9},
		{"adder64T", func() (*dag.Problem, error) {
			return dag.TransistorLevel(gen.RippleAdder(64, gen.FABuffered), m)
		}, 0.7},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			want := sizeOnce(t, p, tc.spec, "dial", 1)
			for _, procs := range []int{2, 4, 8} {
				diffResults(t, tc.name, want, sizeOnce(t, p, tc.spec, "dial", procs))
			}
		})
	}
}

// TestResolveFlowEngineAuto pins the engine-name policy: ""/"auto"
// select "dial", every registered engine passes through by name, and
// unknown names are rejected.
func TestResolveFlowEngineAuto(t *testing.T) {
	for _, name := range []string{"", "auto"} {
		if got, err := ResolveFlowEngine(name); err != nil || got != "dial" {
			t.Fatalf("ResolveFlowEngine(%q) = %q, %v; want dial", name, got, err)
		}
	}
	for _, name := range mcmf.EngineNames() {
		if got, err := ResolveFlowEngine(name); err != nil || got != name {
			t.Fatalf("explicit %q: got %q, err %v", name, got, err)
		}
	}
	for _, name := range []string{"nope", "parallel", "Dial"} {
		if _, err := ResolveFlowEngine(name); err == nil {
			t.Fatalf("unknown engine %q accepted", name)
		}
	}
}
