package core

import (
	"math/rand"
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
// flow engine, returning the full result.
func sizeOnce(t *testing.T, p *dag.Problem, spec float64, engine string) *Result {
	t.Helper()
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Size(p, spec*tm.CP, Options{FlowEngine: engine})
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
		t.Fatalf("%s: area/CP/iters %v/%v/%d, want %v/%v/%d",
			tag, got.Area, got.CP, got.Iterations, want.Area, want.CP, want.Iterations)
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("%s: x[%d] = %v, want %v", tag, i, got.X[i], want.X[i])
		}
	}
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: %d iterations traced, want %d", tag, len(got.Stats), len(want.Stats))
	}
	for i := range want.Stats {
		w, g := want.Stats[i], got.Stats[i]
		if g.Area != w.Area || g.CP != w.CP || g.Objective != w.Objective ||
			g.Window != w.Window || g.Clamped != w.Clamped || g.Repaired != w.Repaired ||
			g.FlowEngine != w.FlowEngine || g.FlowResolves != w.FlowResolves {
			t.Fatalf("%s: iteration %d diverged: %+v, want %+v", tag, i+1, g, w)
		}
	}
}

// TestAutoEngineMatchesDialRandom pins the default engine selection
// end to end: across 100+ random logic instances, core.Size with
// FlowEngine "" and "auto" must reproduce a pinned "dial" run bit for
// bit — same areas, same iteration counts, same sizes, same
// per-iteration trajectory.
func TestAutoEngineMatchesDialRandom(t *testing.T) {
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
		want := sizeOnce(t, p, spec, "dial")
		for _, name := range []string{"", "auto"} {
			diffResults(t, ckt.Name+" engine "+strconv.Quote(name), want, sizeOnce(t, p, spec, name))
		}
		count++
	}
	if count < 100 {
		t.Fatalf("only %d instances exercised, want >= 100", count)
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
