package serve

import (
	"context"
	"errors"
	"testing"

	"minflo/internal/cell"
	"minflo/internal/circuit"
	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/fault"
)

// TestServeQuarantineReplayMixedHistory is the regression for the
// serve layer's rebuild state loss: the replayable session history
// holds sticky what-if weight batches interleaved with netlist edits —
// including a structural gate-set batch, which compacts the prefix
// into a snapshot — and a quarantine rebuild must reproduce all of it.
// The oracle is a never-quarantined serial twin built the way the
// rebuild is specified to behave: a fresh session replaying the
// accepted state mutations in order (edit, weights, edit, weights)
// with no intervening solves, then queried at the same target.  The
// rebuilt generation's first answer must be bit-identical to it.
func TestServeQuarantineReplayMixedHistory(t *testing.T) {
	srv, _, c := newTestServer(t, Config{NoEngineFallback: true})
	ctx := context.Background()

	sub, err := c.Submit(ctx, &SubmitRequest{ID: "mx", Circuit: "adder16", FlowEngine: "fault"})
	if err != nil {
		t.Fatal(err)
	}
	fault.Reset()

	T1, T2, T3 := 0.6*sub.MinDelayPS, 0.65*sub.MinDelayPS, 0.62*sub.MinDelayPS
	w1g, w1w := []int{5}, []float64{5}
	w2g, w2w := []int{9, 17}, []float64{4, 3}

	// The served history: value edit, weighted query, structural
	// gate-set edit (snapshot compaction; by the structural-rebuild
	// contract it also resets the sticky w1), weighted query.
	if _, err := c.Edit(ctx, "mx", &EditRequest{Edits: []EditOp{{Op: "load", Gate: 3, LoadFF: 30}}}); err != nil {
		t.Fatal(err)
	}
	if q, err := c.Query(ctx, "mx", &QueryRequest{TargetPS: T1, AreaWeights: []AreaWeight{{Gate: 5, Weight: 5}}}); err != nil || q.Error != nil {
		t.Fatalf("weighted query: %v %+v", err, q)
	}
	er, err := c.Edit(ctx, "mx", &EditRequest{Edits: []EditOp{
		{Op: "add", Name: "mxinv", Cell: "INV", Inputs: []string{"a0"}, PO: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !er.Structural || !er.GateSetChanged || er.NumGates != sub.NumGates+1 {
		t.Fatalf("gate-set edit misreported: %+v", er)
	}
	if q, err := c.Query(ctx, "mx", &QueryRequest{TargetPS: T2, AreaWeights: []AreaWeight{{Gate: 9, Weight: 4}, {Gate: 17, Weight: 3}}}); err != nil || q.Error != nil {
		t.Fatalf("post-snapshot query: %v %+v", err, q)
	}

	// Crash the next solve; the session quarantines.
	fault.SetPlan(fault.Plan{Mode: fault.Panic, Op: 20})
	defer fault.Reset()
	_, _ = c.Query(ctx, "mx", &QueryRequest{TargetPS: 0.5 * sub.MinDelayPS})
	fault.Reset()
	if info, _ := c.Info(ctx, "mx"); !info.Quarantined {
		t.Fatal("session not quarantined")
	}

	// The rebuild starts from the gate-set snapshot and replays the w2
	// batch recorded after it.
	q3, err := c.Query(ctx, "mx", &QueryRequest{TargetPS: T3, WantSizes: true})
	if err != nil || q3.Error != nil {
		t.Fatalf("post-rebuild query: %v %+v", err, q3)
	}
	if q3.Generation != 1 || q3.Seq != 1 {
		t.Fatalf("generation bookkeeping: %+v", q3)
	}

	// Serial twin: the uncompacted replay (pristine netlist, then e1,
	// w1, e2, w2 in arrival order).  Bit-identity here proves both the
	// weight-ledger replay and the snapshot compaction exact.
	mkTwin := func(withW2 bool) *core.Result {
		t.Helper()
		tc, err := srv.buildCircuit(SubmitRequest{Circuit: "adder16"})
		if err != nil {
			t.Fatal(err)
		}
		a0, ok := tc.Lookup("a0")
		if !ok {
			t.Fatal("no PI a0")
		}
		teco, err := dag.NewEco(tc, srv.model)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := core.NewEcoSession(teco, core.Options{FlowEngine: "fault", NoEngineFallback: true})
		if err != nil {
			t.Fatal(err)
		}
		defer twin.Close()
		if _, err := twin.ApplyEdits([]dag.Edit{{Op: dag.EditLoad, Gate: 3, LoadFF: 30}}); err != nil {
			t.Fatal(err)
		}
		if err := twin.SetAreaWeights(w1g, w1w); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.ApplyEdits([]dag.Edit{{Op: dag.EditAdd, Name: "mxinv", Cell: cell.Inv, Ins: []circuit.Ref{a0}, PO: true}}); err != nil {
			t.Fatal(err)
		}
		if withW2 {
			if err := twin.SetAreaWeights(w2g, w2w); err != nil {
				t.Fatal(err)
			}
		}
		res, err := twin.Resize(ctx, T3, core.Budgets{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := mkTwin(true)
	if q3.Area != ref.Area || q3.CPPS != ref.CP || q3.Iterations != ref.Iterations {
		t.Fatalf("rebuilt session diverged from serial twin: (%.17g, %.17g, %d) vs (%.17g, %.17g, %d)",
			q3.Area, q3.CPPS, q3.Iterations, ref.Area, ref.CP, ref.Iterations)
	}
	for i := range q3.Sizes {
		if q3.Sizes[i] != ref.X[i] {
			t.Fatalf("size[%d] diverged after rebuild: %.17g vs %.17g", i, q3.Sizes[i], ref.X[i])
		}
	}
	// The weight ledger must be load-bearing: the same twin minus the
	// post-snapshot weights answers differently, so the agreement above
	// is not vacuous (the old code dropped exactly those weights on
	// rebuild).
	ctl := mkTwin(false)
	if ref.Area == ctl.Area && ref.Iterations == ctl.Iterations {
		t.Fatal("weight replay not load-bearing: answers match the weight-free control")
	}
	// Replay must not re-count the batches in the server stats.
	if got := srv.edits.Load(); got != 2 {
		t.Fatalf("edit counter %d after rebuild, want 2", got)
	}
}

// TestServeAutoEngineReplayDeterministic: a session submitted with
// "flow_engine": "auto" must answer as a pure function of its history,
// including across a structural rewire that rebuilds the D-phase
// scratch.  The oracle is a serial core.NewEcoSession twin pinned to
// "ssp" replaying the same queries and edits: every answer must be
// bit-identical to it.
func TestServeAutoEngineReplayDeterministic(t *testing.T) {
	cfg := Config{TrustRegion: 0.05}
	srv, _, c := newTestServer(t, cfg)
	ctx := context.Background()
	sub, err := c.Submit(ctx, &SubmitRequest{ID: "au", Circuit: "adder16", FlowEngine: "auto"})
	if err != nil {
		t.Fatal(err)
	}

	tc, err := srv.buildCircuit(SubmitRequest{Circuit: "adder16"})
	if err != nil {
		t.Fatal(err)
	}
	a0, ok := tc.Lookup("a0")
	if !ok {
		t.Fatal("no PI a0")
	}
	teco, err := dag.NewEco(tc, srv.model)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := core.NewEcoSession(teco, core.Options{FlowEngine: "ssp", TrustRegion: cfg.TrustRegion})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()

	check := func(tag string, T float64) {
		t.Helper()
		q, err := c.Query(ctx, "au", &QueryRequest{TargetPS: T, WantSizes: true})
		if err != nil || q.Error != nil {
			t.Fatalf("%s: query: %v %+v", tag, err, q)
		}
		ref, err := twin.Resize(ctx, T, core.Budgets{})
		if err != nil {
			t.Fatalf("%s: twin: %v", tag, err)
		}
		if q.Area != ref.Area || q.CPPS != ref.CP || q.Iterations != ref.Iterations || q.Seed != ref.Seed {
			t.Fatalf("%s: served (%.17g, %.17g, %d, %s) != ssp twin (%.17g, %.17g, %d, %s)",
				tag, q.Area, q.CPPS, q.Iterations, q.Seed, ref.Area, ref.CP, ref.Iterations, ref.Seed)
		}
		for i := range ref.X {
			if q.Sizes[i] != ref.X[i] {
				t.Fatalf("%s: size[%d] %.17g != ssp twin %.17g", tag, i, q.Sizes[i], ref.X[i])
			}
		}
	}

	check("cold", 0.6*sub.MinDelayPS)
	check("warm", 0.61*sub.MinDelayPS)
	// adder16 gate 1 (g2) pin 1 moves from g1, which keeps two other
	// fanouts, to PI a0: a structural batch, so both sides rebuild
	// their D-phase scratch.
	er, err := c.Edit(ctx, "au", &EditRequest{Edits: []EditOp{{Op: "rewire", Gate: 1, Pin: 1, Driver: "a0"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !er.Structural || !er.Rebuilt {
		t.Fatalf("rewire misreported: %+v", er)
	}
	if _, err := twin.ApplyEdits([]dag.Edit{{Op: dag.EditRewire, Gate: 1, Pin: 1, Driver: a0}}); err != nil {
		t.Fatal(err)
	}
	check("post-rewire", 0.95*er.CPPS)
	check("post-rewire warm", 0.955*er.CPPS)
}

// TestServeEditGateSet drives "add" and "remove" through the wire
// format: in-batch name resolution (an add referenced before it exists
// in the resident netlist), index shifting after a mid-batch remove,
// rejection atomicity, and the gate-count bookkeeping.
func TestServeEditGateSet(t *testing.T) {
	srv, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	sub := submitCircuit(t, c, "gs", "c17")

	// B1: insert an inverter buffering G11 into G19's pin 0.  The
	// rewire names "xinv" before the gate exists in the resident
	// netlist — resolution must track the batch.
	er, err := c.Edit(ctx, "gs", &EditRequest{Edits: []EditOp{
		{Op: "add", Name: "xinv", Cell: "INV", Inputs: []string{"G11"}},
		{Op: "rewire", Gate: 3, Pin: 0, Driver: "xinv"},
	}})
	if err != nil {
		t.Fatalf("add batch: %v", err)
	}
	if !er.Structural || !er.GateSetChanged || er.NumGates != sub.NumGates+1 {
		t.Fatalf("add batch misreported: %+v", er)
	}
	T := 0.9 * er.CPPS
	q1, err := c.Query(ctx, "gs", &QueryRequest{TargetPS: T, WantSizes: true})
	if err != nil || q1.Error != nil {
		t.Fatalf("post-add query: %v %+v", err, q1)
	}

	// Rejected batches: every one answers 400 and leaves no trace.
	var apiErr *APIError
	for _, bad := range []EditRequest{
		{Edits: []EditOp{{Op: "remove", Gate: 1}}},                                                  // G11 is live (drives G16)
		{Edits: []EditOp{{Op: "remove", Gate: 99}}},                                                 // out of range
		{Edits: []EditOp{{Op: "add", Name: "y", Cell: "INV", Inputs: []string{"no_such"}}}},         // unknown driver
		{Edits: []EditOp{{Op: "add", Name: "xinv", Cell: "INV", Inputs: []string{"G1"}, PO: true}}}, // duplicate name
		{Edits: []EditOp{{Op: "add", Name: "dangle", Cell: "INV", Inputs: []string{"G1"}}}},         // drives nothing
		{Edits: []EditOp{{Op: "add", Name: "y", Cell: "NO_SUCH", Inputs: []string{"G1"}, PO: true}}},
		// A removed gate's name must stop resolving for the rest of the
		// batch (a pre-batch ref would carry a stale index).
		{Edits: []EditOp{
			{Op: "rewire", Gate: 3, Pin: 0, Driver: "G11"},
			{Op: "remove", Gate: 6},
			{Op: "rewire", Gate: 3, Pin: 0, Driver: "xinv"},
		}},
	} {
		if _, err := c.Edit(ctx, "gs", &bad); !errors.As(err, &apiErr) || apiErr.Body.Code != CodeBadRequest {
			t.Fatalf("bad gate-set batch %+v: %v", bad, err)
		}
	}
	// Atomicity witness: with the trust region off a query is a pure
	// function of the netlist state, so the same target answers
	// bit-identically to the pre-rejection reference.
	q2, err := c.Query(ctx, "gs", &QueryRequest{TargetPS: T, WantSizes: true})
	if err != nil || q2.Error != nil {
		t.Fatalf("post-rejection query: %v %+v", err, q2)
	}
	if q2.Area != q1.Area || q2.CPPS != q1.CPPS || q2.Iterations != q1.Iterations {
		t.Fatalf("rejected batches perturbed the session: %+v vs %+v", q2, q1)
	}

	// B2: retarget G22's pin 0 onto xinv, which kills G10; remove it
	// (index 0 — every other index shifts down) and land a load on
	// xinv's post-shift index in the same batch.
	er2, err := c.Edit(ctx, "gs", &EditRequest{Edits: []EditOp{
		{Op: "rewire", Gate: 4, Pin: 0, Driver: "xinv"},
		{Op: "remove", Gate: 0},
		{Op: "load", Gate: 5, LoadFF: 2},
	}})
	if err != nil {
		t.Fatalf("remove batch: %v", err)
	}
	if !er2.GateSetChanged || er2.NumGates != sub.NumGates {
		t.Fatalf("remove batch misreported: %+v", er2)
	}

	// B3: detach xinv from both consumers (post-shift indices: G19=2,
	// G22=3, xinv=5) and remove it.
	er3, err := c.Edit(ctx, "gs", &EditRequest{Edits: []EditOp{
		{Op: "rewire", Gate: 3, Pin: 0, Driver: "G11"},
		{Op: "rewire", Gate: 2, Pin: 0, Driver: "G11"},
		{Op: "remove", Gate: 5},
	}})
	if err != nil {
		t.Fatalf("detach batch: %v", err)
	}
	if !er3.GateSetChanged || er3.NumGates != sub.NumGates-1 {
		t.Fatalf("detach batch misreported: %+v", er3)
	}
	q4, err := c.Query(ctx, "gs", &QueryRequest{TargetPS: 0.9 * er3.CPPS})
	if err != nil || q4.Error != nil {
		t.Fatalf("final query: %v %+v", err, q4)
	}
	if q4.CPPS > 0.9*er3.CPPS*(1+1e-9) {
		t.Fatalf("final answer misses target: %.6g > %.6g", q4.CPPS, 0.9*er3.CPPS)
	}

	info, err := c.Info(ctx, "gs")
	if err != nil {
		t.Fatal(err)
	}
	if info.Edits != 3 || info.NumGates != sub.NumGates-1 {
		t.Fatalf("info after gate-set edits: %+v", info)
	}
	if srv.edits.Load() != 3 {
		t.Fatalf("server edit counter %d, want 3 (rejected batches must not count)", srv.edits.Load())
	}
}

// TestServeEvictionHistoryGrowth: the replayable history ledger is
// session state the watermarks must see.  A session whose solver
// footprint fits comfortably under MemHigh must still be evicted when
// its accumulated edit history alone crosses the watermark (the old
// accounting charged only the solver state and the retained bench
// source, so history grew unbounded and invisibly).
func TestServeEvictionHistoryGrowth(t *testing.T) {
	// Measure one warm c17 session so the watermark can be set just
	// above the solver state: only serve-layer history can cross it.
	probe, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := probe.buildCircuit(SubmitRequest{Circuit: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	eco, err := dag.NewEco(ckt, probe.model)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := core.NewEcoSession(eco, core.Options{FlowEngine: "ssp"})
	if err != nil {
		t.Fatal(err)
	}
	one := cs.MemoryBytes()
	cs.Close()

	srv, _, c := newTestServer(t, Config{
		MemHighBytes: one + 24<<10,
		MemLowBytes:  one + 12<<10,
	})
	ctx := context.Background()
	submitCircuit(t, c, "hist", "c17")

	evicted := false
	var lastCore int64
	for i := 0; i < 400 && !evicted; i++ {
		er, err := c.Edit(ctx, "hist", &EditRequest{Edits: []EditOp{
			{Op: "load", Gate: i % 6, LoadFF: float64(i%7) / 2},
		}})
		if err != nil {
			var apiErr *APIError
			if errors.As(err, &apiErr) && apiErr.Body.Code == CodeNotFound {
				evicted = true
				break
			}
			t.Fatalf("edit %d: %v", i, err)
		}
		lastCore = er.MemBytes
	}
	if !evicted {
		st, _ := c.Stats(ctx)
		t.Fatalf("history growth never crossed the watermark (mem=%d high=%d)", st.MemBytes, one+24<<10)
	}
	// The solver footprint stayed put — the history, not the core
	// state, is what crossed the watermark.
	if lastCore > one+12<<10 {
		t.Fatalf("core footprint grew to %d (one session = %d): the eviction was not history-driven", lastCore, one)
	}
	if srv.evictions.Load() == 0 {
		t.Fatal("eviction counter did not move")
	}
}
