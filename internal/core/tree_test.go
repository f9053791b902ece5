package core

import (
	"context"
	"testing"

	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/mcmf"
	"minflo/internal/sta"
	"minflo/internal/tech"
)

// TestTreeSizingBoundsPerSourceWork sizes the wide tree TestAnswerPin
// pins (gen.BalancedTree(1024) at 0.9·Dmin) and demands that both
// limits on the per-source loop fire: a race that quits because it
// fell behind the phases, and a ResolveChanged that hands its excess
// over to phases.  The answer pin then covers both code paths.
func TestTreeSizingBoundsPerSourceWork(t *testing.T) {
	m := delay.NewModel(tech.Default013())
	p, err := dag.GateLevel(gen.BalancedTree(1024), m)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		t.Fatal(err)
	}
	var sess *Session
	var prev mcmf.Stats
	handovers := 0
	opt := Options{OnIteration: func(IterStats) {
		st := sess.sc.sys.FlowEngineStats()
		if st.Resolves > prev.Resolves && st.Phases > prev.Phases {
			handovers++
		}
		prev = st
	}}
	if sess, err = NewSession(p, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Resize(context.Background(), 0.9*tm.CP, Budgets{}); err != nil {
		t.Fatal(err)
	}
	st := sess.sc.sys.FlowEngineStats()
	t.Logf("%d solves, %d resolves, %d races, %d quits, %d handovers", st.Solves, st.Resolves, st.Races, st.RaceQuits, handovers)
	if st.RaceQuits == 0 {
		t.Errorf("no race quit in %d races", st.Races)
	}
	if handovers == 0 {
		t.Errorf("no resolve handed over to phases in %d resolves", st.Resolves)
	}
}
