package core

import (
	"context"
	"math/rand"
	"testing"

	"minflo/internal/cell"
	"minflo/internal/circuit"
	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/tech"
)

func mustEco(t testing.TB, c *circuit.Circuit) *dag.Eco {
	t.Helper()
	e, err := dag.NewEco(c, delay.NewModel(tech.Default013()))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// twinOfEdited builds a cold session over a fresh build of e's current
// (post-edit) netlist: a clone of the edited circuit goes through
// GateLevel from scratch, with only the extra-load state re-applied.
// This is the independent oracle — none of the in-place patching that
// produced e's resident state runs on this side.
func twinOfEdited(t testing.TB, e *dag.Eco, opt Options) *Session {
	t.Helper()
	te := mustEco(t, e.C.Clone())
	var loads []dag.Edit
	for gi, x := range e.Extra {
		if x != 0 {
			loads = append(loads, dag.Edit{Op: dag.EditLoad, Gate: gi, LoadFF: x})
		}
	}
	s, err := NewEcoSession(te, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) > 0 {
		if _, err := s.ApplyEdits(loads); err != nil {
			s.Close()
			t.Fatal(err)
		}
	}
	return s
}

// randomCoreBatch mirrors the dag-level harness generator: 1–3 random
// edits, rewires restricted to lower-indexed drivers so gen circuits
// stay acyclic (rejection from dangling old drivers is still possible
// and fine — the caller retries).
func randomCoreBatch(c *circuit.Circuit, rng *rand.Rand) []dag.Edit {
	n := 1 + rng.Intn(3)
	batch := make([]dag.Edit, 0, n)
	for len(batch) < n {
		gi := rng.Intn(c.NumGates())
		g := &c.Gates[gi]
		switch rng.Intn(3) {
		case 0:
			var opts []cell.Kind
			for k := 0; k < cell.NumKinds; k++ {
				if cell.Get(cell.Kind(k)).NumInputs == len(g.Ins) {
					opts = append(opts, cell.Kind(k))
				}
			}
			if len(opts) == 0 {
				continue
			}
			batch = append(batch, dag.Edit{Op: dag.EditRetype, Gate: gi, Cell: opts[rng.Intn(len(opts))]})
		case 1:
			batch = append(batch, dag.Edit{Op: dag.EditLoad, Gate: gi, LoadFF: 15 * rng.Float64()})
		default:
			pin := rng.Intn(len(g.Ins))
			var d circuit.Ref
			if gi == 0 || rng.Intn(2) == 0 {
				d = circuit.PIRef(rng.Intn(c.NumPIs()))
			} else {
				d = circuit.GateRef(rng.Intn(gi))
			}
			batch = append(batch, dag.Edit{Op: dag.EditRewire, Gate: gi, Pin: pin, Driver: d})
		}
	}
	return batch
}

// TestEcoEditResizeColdConformance is the ISSUE's acceptance harness:
// across 110 random netlists, applying an edit batch to a cold session
// and resizing answers bit-identically to a twin session built cold
// from the already-edited netlist — edit-then-resize ≡
// rebuild-then-resize, per the state-patch exactness contract.
func TestEcoEditResizeColdConformance(t *testing.T) {
	opt := Options{}
	applied := 0
	for inst := 0; inst < 110; inst++ {
		rng := rand.New(rand.NewSource(int64(9100 + inst)))
		c := gen.RandomLogic(4+rng.Intn(5), 12+rng.Intn(24), int64(inst))
		e := mustEco(t, c)
		sess, err := NewEcoSession(e, opt)
		if err != nil {
			t.Fatalf("inst %d: %v", inst, err)
		}

		var rep *EditReport
		for try := 0; try < 8 && rep == nil; try++ {
			rep, _ = sess.ApplyEdits(randomCoreBatch(e.C, rng))
		}
		if rep == nil {
			sess.Close()
			continue // every random batch was validly rejected; rare
		}
		applied++

		twin := twinOfEdited(t, e, opt)
		T := 0.6 * rep.CP
		ra, errA := sess.Resize(context.Background(), T, Budgets{})
		rb, errB := twin.Resize(context.Background(), T, Budgets{})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("inst %d: error divergence: edited %v vs rebuilt %v", inst, errA, errB)
		}
		if errA == nil {
			if !bitEqual(ra.X, rb.X) || ra.Area != rb.Area || ra.CP != rb.CP || ra.Iterations != rb.Iterations {
				t.Fatalf("inst %d: edit-then-resize diverged from rebuild-then-resize\nedited:  area %.17g cp %.17g iters %d\nrebuilt: area %.17g cp %.17g iters %d",
					inst, ra.Area, ra.CP, ra.Iterations, rb.Area, rb.CP, rb.Iterations)
			}
		}
		twin.Close()
		sess.Close()
	}
	if applied < 80 {
		t.Fatalf("harness applied only %d/110 batches", applied)
	}
	t.Logf("cold conformance: %d/110 instances verified bit-identical", applied)
}

// TestEcoSessionReplayDeterminism extends the session replay contract
// to histories containing edits: a twin replaying the same interleaved
// query/edit/weight sequence answers every query bit-identically —
// including across a structural rewire (which resets sticky weights on
// both sides at the same point).
func TestEcoSessionReplayDeterminism(t *testing.T) {
	opt := Options{TrustRegion: 0.05}
	build := func() *Session {
		e := mustEco(t, gen.RippleAdder(16, gen.FABuffered))
		s, err := NewEcoSession(e, opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sess, twin := build(), build()
	defer sess.Close()
	defer twin.Close()

	tmin := sess.sc.retime(sess.p, sess.p.InitialSizes())
	type step struct {
		edits  []dag.Edit
		wGates []int
		wVals  []float64
		target float64
	}
	steps := []step{
		{target: 0.6 * tmin},
		{edits: []dag.Edit{{Op: dag.EditLoad, Gate: 5, LoadFF: 8}}, target: 0.6 * tmin},
		{wGates: []int{3, 3}, wVals: []float64{4, 2}, target: 0.62 * tmin}, // duplicate: last wins
		{edits: []dag.Edit{{Op: dag.EditRetype, Gate: 7, Cell: retypeTarget(t, sess.eco, 7)}}, target: 0.62 * tmin},
		{edits: []dag.Edit{validRewire(t, sess.eco)}, target: 0.64 * tmin},
		{target: 0.6 * tmin},
	}
	edits := 0
	for i, st := range steps {
		for _, s := range []*Session{sess, twin} {
			if st.edits != nil {
				if _, err := s.ApplyEdits(st.edits); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if s == sess {
					edits++
				}
			}
			if st.wGates != nil {
				if err := s.SetAreaWeights(st.wGates, st.wVals); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
		}
		ra, errA := sess.Resize(context.Background(), st.target, Budgets{})
		rb, errB := twin.Resize(context.Background(), st.target, Budgets{})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("step %d: error divergence %v vs %v", i, errA, errB)
		}
		if errA != nil {
			continue
		}
		if !bitEqual(ra.X, rb.X) || ra.Area != rb.Area || ra.CP != rb.CP || ra.Iterations != rb.Iterations {
			t.Fatalf("step %d: twin replay diverged (seed %q vs %q)", i, ra.Seed, rb.Seed)
		}
	}
	if edits != 3 {
		t.Fatalf("edit count %d, want 3", edits)
	}
}

// validRewire finds a structural edit that survives validation: a
// gate pin whose current driver keeps other fanout (no dangling), and
// a new lower-indexed gate driver (no cycle: gen circuits are built in
// topological index order).
func validRewire(t testing.TB, e *dag.Eco) dag.Edit {
	t.Helper()
	fanPtr, _, poCount := e.C.FanoutsCSR()
	fanout := func(r circuit.Ref) int {
		if r.Kind != circuit.RefGate {
			return 2 // PIs never dangle
		}
		return int(fanPtr[r.Index+1]-fanPtr[r.Index]) + int(poCount[r.Index])
	}
	for gi := e.C.NumGates() - 1; gi > 1; gi-- {
		g := &e.C.Gates[gi]
		for pin, in := range g.Ins {
			if fanout(in) < 2 {
				continue
			}
			for d := 0; d < gi; d++ {
				ref := circuit.GateRef(d)
				if ref != in {
					return dag.Edit{Op: dag.EditRewire, Gate: gi, Pin: pin, Driver: ref}
				}
			}
		}
	}
	t.Fatal("no valid rewire found")
	return dag.Edit{}
}

// retypeTarget picks a different same-arity cell for gate gi.
func retypeTarget(t testing.TB, e *dag.Eco, gi int) cell.Kind {
	t.Helper()
	g := &e.C.Gates[gi]
	for k := 0; k < cell.NumKinds; k++ {
		kk := cell.Kind(k)
		if kk != g.Kind && cell.Get(kk).NumInputs == len(g.Ins) {
			return kk
		}
	}
	t.Fatalf("no retype target for gate %d", gi)
	return 0
}

// TestEcoConeBudget drives the fallback policy: a tiny budget forces
// any edit over it (seed dropped, scratch rebuilt, reported), a
// negative budget disables the check entirely.
func TestEcoConeBudget(t *testing.T) {
	e := mustEco(t, gen.RippleAdder(16, gen.FABuffered))
	sess, err := NewEcoSession(e, Options{TrustRegion: 0.5, EditConeBudget: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tmin := sess.sc.retime(sess.p, sess.p.InitialSizes())
	if _, err := sess.Resize(context.Background(), 0.6*tmin, Budgets{}); err != nil {
		t.Fatal(err)
	}
	// Gate 0 feeds downstream logic: its cone can't fit in 1e-6.
	rep, err := sess.ApplyEdits([]dag.Edit{{Op: dag.EditLoad, Gate: 0, LoadFF: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fallback || !rep.Rebuilt || rep.SeedKept {
		t.Fatalf("expected cone-budget fallback, got %+v", rep)
	}
	// The seed was dropped: the next in-region query runs cold.
	r, err := sess.Resize(context.Background(), 0.6*tmin, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seed != SeedTilos {
		t.Fatalf("post-fallback resize seeded %q, want cold", r.Seed)
	}

	// Negative budget: the same edit keeps the seed warm.
	e2 := mustEco(t, gen.RippleAdder(16, gen.FABuffered))
	s2, err := NewEcoSession(e2, Options{TrustRegion: 0.5, EditConeBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Resize(context.Background(), 0.6*tmin, Budgets{}); err != nil {
		t.Fatal(err)
	}
	rep2, err := s2.ApplyEdits([]dag.Edit{{Op: dag.EditLoad, Gate: 0, LoadFF: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Fallback || rep2.Rebuilt || !rep2.SeedKept {
		t.Fatalf("disabled budget still fell back: %+v", rep2)
	}
}

// TestSessionAtomicWeights is the ISSUE's acceptance check for the
// batch-weights bugfix: a rejected weight batch (valid entries before
// an invalid one) leaves the session bit-identical to never having
// received it, proven by a serial twin that never saw the batch.
func TestSessionAtomicWeights(t *testing.T) {
	opt := Options{}
	p1 := mustProblem(t, "adder16")
	sess, err := NewSession(p1, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	p2 := mustProblem(t, "adder16")
	twin, err := NewSession(p2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()

	tmin := minCP(t, mustProblem(t, "adder16"))
	for _, s := range []*Session{sess, twin} {
		if _, err := s.Resize(context.Background(), 0.6*tmin, Budgets{}); err != nil {
			t.Fatal(err)
		}
	}

	// Batch with two valid entries before an out-of-range one: must be
	// rejected with NOTHING applied.
	err = sess.SetAreaWeights([]int{0, 1, 10_000_000}, []float64{5, 5, 5})
	if err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	if sess.AreaWeight(0) != twin.AreaWeight(0) || sess.AreaWeight(1) != twin.AreaWeight(1) {
		t.Fatal("rejected batch left weights half-applied")
	}
	// And one failing on a non-finite weight mid-batch.
	if err := sess.SetAreaWeights([]int{2, 3}, []float64{4, -1}); err == nil {
		t.Fatal("negative-weight batch accepted")
	}

	// The replay proof: both sessions now serve the same next query
	// bit-identically — the rejected batches left no trace.
	ra, err := sess.Resize(context.Background(), 0.55*tmin, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := twin.Resize(context.Background(), 0.55*tmin, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(ra.X, rb.X) || ra.Area != rb.Area || ra.CP != rb.CP || ra.Iterations != rb.Iterations {
		t.Fatalf("rejected weight batches perturbed the session: area %.17g vs twin %.17g", ra.Area, rb.Area)
	}

	// Last-wins duplicate collapse: [g:5, g:2] ends at 2 on both the
	// batch API and the serial single-set path.
	if err := sess.SetAreaWeights([]int{4, 4}, []float64{5, 2}); err != nil {
		t.Fatal(err)
	}
	if err := twin.SetAreaWeight(4, 2); err != nil {
		t.Fatal(err)
	}
	if sess.AreaWeight(4) != 2 || sess.AreaWeight(4) != twin.AreaWeight(4) {
		t.Fatalf("duplicate collapse: weight %g, want 2", sess.AreaWeight(4))
	}
	ra, err = sess.Resize(context.Background(), 0.6*tmin, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err = twin.Resize(context.Background(), 0.6*tmin, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(ra.X, rb.X) {
		t.Fatal("batch vs serial weight application diverged")
	}
}

// FuzzApplyEdits interleaves random edits, queries, cancellations, and
// weight batches against one session and replays the accepted prefix
// on a serial twin; any divergence, panic, or state leak from a
// rejected operation fails the target.  Run under -race in CI.
func FuzzApplyEdits(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3})
	f.Add(int64(2), []byte{5, 5, 5, 5, 5, 5})
	f.Add(int64(3), []byte{9, 0, 9, 1, 9, 2, 9})
	f.Fuzz(func(t *testing.T, seed int64, program []byte) {
		if len(program) > 12 {
			program = program[:12]
		}
		rng := rand.New(rand.NewSource(seed))
		opt := Options{TrustRegion: 0.05}
		c := gen.RandomLogic(4, 16, seed)
		sess, err := NewEcoSession(mustEco(t, c), opt)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		twin, err := NewEcoSession(mustEco(t, c.Clone()), opt)
		if err != nil {
			t.Fatal(err)
		}
		defer twin.Close()

		tmin := sess.sc.retime(sess.p, sess.p.InitialSizes())
		for _, op := range program {
			switch op % 4 {
			case 0: // query, replayed on the twin
				T := (0.55 + 0.01*float64(op%16)) * tmin
				ra, errA := sess.Resize(context.Background(), T, Budgets{})
				rb, errB := twin.Resize(context.Background(), T, Budgets{})
				if (errA == nil) != (errB == nil) {
					t.Fatalf("error divergence: %v vs %v", errA, errB)
				}
				if errA == nil && (!bitEqual(ra.X, rb.X) || ra.Iterations != rb.Iterations) {
					t.Fatal("twin replay diverged")
				}
			case 1: // edit batch, applied to both or neither
				batch := randomCoreBatch(sess.eco.C, rng)
				_, errA := sess.ApplyEdits(batch)
				_, errB := twin.ApplyEdits(batch)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("edit acceptance divergence: %v vs %v", errA, errB)
				}
			case 2: // canceled query: leaves no residue on either side
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				_, _ = sess.Resize(ctx, 0.6*tmin, Budgets{})
				_, _ = twin.Resize(ctx, 0.6*tmin, Budgets{})
			default: // weight batch, possibly invalid — atomic either way
				gates := []int{int(op) % sess.NumSizable(), int(op/2) % sess.NumSizable()}
				ws := []float64{1 + float64(op%5), 1 + float64(op%3)}
				if op%7 == 0 {
					ws[1] = -1 // rejected: must leave no trace
				}
				errA := sess.SetAreaWeights(gates, ws)
				errB := twin.SetAreaWeights(gates, ws)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("weight acceptance divergence: %v vs %v", errA, errB)
				}
			}
		}
	})
}
