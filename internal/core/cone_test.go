package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"minflo/internal/circuit"
	"minflo/internal/dag"
	"minflo/internal/gen"
	"minflo/internal/mcmf"
	"minflo/internal/sta"
)

// valueOnlyBatch generates 1–2 load edits biased toward high-indexed
// (near-output) gates, whose forward cones are small — the regime
// cone-local re-sizing exists for.
func valueOnlyBatch(c *circuit.Circuit, rng *rand.Rand) []dag.Edit {
	n := 1 + rng.Intn(2)
	batch := make([]dag.Edit, 0, n)
	for len(batch) < n {
		// Bias toward the last quarter of the index space.
		span := c.NumGates()/4 + 1
		gi := c.NumGates() - 1 - rng.Intn(span)
		batch = append(batch, dag.Edit{Op: dag.EditLoad, Gate: gi, LoadFF: 0.3 + 1.2*rng.Float64()})
	}
	return batch
}

// TestConeResizeConformance is the ISSUE's acceptance suite for the
// tentpole: across 110 random netlists, a session answering post-edit
// queries from the cone subproblem (EditConeResize) must
//   - meet the timing spec under an independent full STA of the merged
//     sizes (boundary arrivals honored — no frozen-boundary cheating),
//   - land within coneAreaTol relative area of the full warm re-size,
//   - answer bit-identically to a twin replaying the same history
//     (replay determinism extends to cone-answered queries).
//
// Cones covering more than half the circuit fall back to the full warm
// path by design; the suite asserts the cone path actually fired on a
// healthy fraction so the checks above exercise real cone answers.
//
// The area tolerance sits above the seedless drift bound (1e-3): both
// sides here are *seeded* trajectories, and the session contract bounds
// seeded warm-vs-cold drift at 2e-2 (see the session.go header).  The
// measured cone-vs-full gap distributes within ±5e-3 — with the cone
// strictly cheaper on some instances — even when both answer from a
// bit-identical resident seed, so the residue is mutual trajectory
// drift of two approximate seeded solvers, not a cone-scoping loss.
func TestConeResizeConformance(t *testing.T) {
	const coneAreaTol = 5e-3
	optCone := Options{TrustRegion: 0.1, EditConeResize: true}
	optFull := Options{TrustRegion: 0.1}

	coneAnswered, verified := 0, 0
	for inst := 0; inst < 110; inst++ {
		rng := rand.New(rand.NewSource(int64(9100 + inst)))
		c := gen.RandomLogic(4+rng.Intn(5), 12+rng.Intn(24), int64(inst))

		mk := func(opt Options) *Session {
			s, err := NewEcoSession(mustEco(t, c.Clone()), opt)
			if err != nil {
				t.Fatalf("inst %d: %v", inst, err)
			}
			return s
		}
		sess, twin, full := mk(optCone), mk(optCone), mk(optFull)

		tmin := sess.sc.retime(sess.p, sess.p.InitialSizes())
		T := 0.75 * tmin
		seeded := true
		for _, s := range []*Session{sess, twin, full} {
			if _, err := s.Resize(context.Background(), T, Budgets{}); err != nil {
				seeded = false
			}
		}
		if !seeded {
			sess.Close()
			twin.Close()
			full.Close()
			continue // infeasible at this target; rare and uninteresting here
		}

		// Two edit rounds per instance: seeds accumulate realistically.
		for round := 0; round < 2; round++ {
			batch := valueOnlyBatch(c, rng)
			for _, s := range []*Session{sess, twin, full} {
				if _, err := s.ApplyEdits(batch); err != nil {
					t.Fatalf("inst %d round %d: %v", inst, round, err)
				}
			}
			ra, errA := sess.Resize(context.Background(), T, Budgets{})
			rb, errB := twin.Resize(context.Background(), T, Budgets{})
			rf, errF := full.Resize(context.Background(), T, Budgets{})
			if (errA == nil) != (errB == nil) {
				t.Fatalf("inst %d round %d: twin error divergence: %v vs %v", inst, round, errA, errB)
			}
			if errF != nil {
				// The edit made the target infeasible for the full path
				// too; the cone side must agree rather than fabricate an
				// answer from a frozen boundary.
				if errA == nil {
					t.Fatalf("inst %d round %d: cone answered (seed %q) where full path failed: %v",
						inst, round, ra.Seed, errF)
				}
				continue
			}
			if errA != nil {
				t.Fatalf("inst %d round %d: cone session failed where full succeeded: %v", inst, round, errA)
			}

			// Replay determinism across cone answers.
			if !bitEqual(ra.X, rb.X) || ra.Area != rb.Area || ra.CP != rb.CP || ra.Iterations != rb.Iterations {
				t.Fatalf("inst %d round %d: twin replay diverged (seed %q vs %q)", inst, round, ra.Seed, rb.Seed)
			}

			// Independent full STA at the merged sizes: the answer must
			// meet spec on the whole graph, not just inside the cone.
			tm, err := sta.Analyze(sess.p.G, sess.p.Delays(ra.X))
			if err != nil {
				t.Fatalf("inst %d round %d: %v", inst, round, err)
			}
			if tm.CP > T*(1+1e-9) {
				t.Fatalf("inst %d round %d: cone answer (seed %q) violates spec: full-STA CP %.17g > target %.17g",
					inst, round, ra.Seed, tm.CP, T)
			}
			if tm.CP != ra.CP {
				t.Fatalf("inst %d round %d: reported CP %.17g disagrees with independent STA %.17g",
					inst, round, ra.CP, tm.CP)
			}

			// Area within coneAreaTol relative of the full warm re-size.
			if rel := (ra.Area - rf.Area) / rf.Area; rel > coneAreaTol || rel < -coneAreaTol {
				t.Fatalf("inst %d round %d: cone area %.17g vs full warm %.17g (rel %+g) beyond %g",
					inst, round, ra.Area, rf.Area, rel, coneAreaTol)
			}
			verified++
			if ra.Seed == SeedCone {
				coneAnswered++
			}
		}
		sess.Close()
		twin.Close()
		full.Close()
	}
	if verified < 150 {
		t.Fatalf("suite verified only %d rounds", verified)
	}
	if coneAnswered < 40 {
		t.Fatalf("cone path answered only %d/%d rounds — the suite is not exercising cone answers", coneAnswered, verified)
	}
	t.Logf("cone conformance: %d rounds verified, %d answered from the cone", verified, coneAnswered)
}

// TestConeResizeCounters walks the observable cone lifecycle on one
// netlist: arming on a value edit, a cone-answered query with its
// Result provenance fields set, disarming by a weight change (re-pricing
// voids the frozen-boundary premise), and no arming when the feature
// is off.
func TestConeResizeCounters(t *testing.T) {
	opt := Options{TrustRegion: 0.1, EditConeResize: true}
	sess, err := NewEcoSession(mustEco(t, gen.RippleAdder(16, gen.FABuffered)), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tmin := sess.sc.retime(sess.p, sess.p.InitialSizes())
	T := 0.6 * tmin
	if _, err := sess.Resize(context.Background(), T, Budgets{}); err != nil {
		t.Fatal(err)
	}

	// A load bump on the bit-0 sum output: its forward cone is just the
	// driver itself, and the ample slack on that shallow path absorbs
	// the bump without violating upstream vertices — so the membership
	// growth (which honestly recruits the whole carry chain for an edit
	// on the critical output) stays local here.
	gate := sess.eco.C.POs[0].Index
	rep, err := sess.ApplyEdits([]dag.Edit{{Op: dag.EditLoad, Gate: gate, LoadFF: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ConeResizePending {
		t.Fatalf("value edit did not arm the cone: %+v", rep)
	}
	r, err := sess.Resize(context.Background(), T, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seed != SeedCone {
		t.Fatalf("expected cone-answered query, got seed %q (cone fallback %v)", r.Seed, r.ConeFallback)
	}
	if r.ConeGates <= 0 || r.ConeGates > sess.NumSizable()/2 {
		t.Fatalf("cone size %d out of range (sizable %d)", r.ConeGates, sess.NumSizable())
	}
	if r.ConeFallback || r.SeedFallback {
		t.Fatalf("cone answer marked as a fallback: %+v", r)
	}
	// The cone is consumed: an immediate repeat runs the plain warm path.
	r2, err := sess.Resize(context.Background(), T, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Seed == SeedCone {
		t.Fatal("cone answered twice from one arming")
	}

	// A weight change between edit and query disarms the cone.
	rep, err = sess.ApplyEdits([]dag.Edit{{Op: dag.EditLoad, Gate: gate, LoadFF: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ConeResizePending {
		t.Fatalf("second value edit did not arm: %+v", rep)
	}
	if err := sess.SetAreaWeight(0, 2); err != nil {
		t.Fatal(err)
	}
	r3, err := sess.Resize(context.Background(), T, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Seed == SeedCone {
		t.Fatal("weight change did not disarm the pending cone")
	}

	// Feature off: same edit shape never arms.
	off, err := NewEcoSession(mustEco(t, gen.RippleAdder(16, gen.FABuffered)),
		Options{TrustRegion: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if _, err := off.Resize(context.Background(), T, Budgets{}); err != nil {
		t.Fatal(err)
	}
	repOff, err := off.ApplyEdits([]dag.Edit{{Op: dag.EditLoad, Gate: gate, LoadFF: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if repOff.ConeResizePending {
		t.Fatal("cone armed with EditConeResize off")
	}
	rOff, err := off.Resize(context.Background(), T, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if rOff.Seed == SeedCone || rOff.ConeFallback {
		t.Fatalf("cone path ran with the feature off (seed %q)", rOff.Seed)
	}
}

// driftScenario replays two load edits on c7552 after an anchor solve
// at 0.6·tmin, answering the first and leaving the second armed: its
// widened cone's answer lands a hair past T on the full graph, and so
// does the re-solve against the shaved target.
func driftScenario(t *testing.T) (*Session, float64) {
	t.Helper()
	sess, err := NewEcoSession(mustEco(t, gen.C7552()), Options{TrustRegion: 0.05, EditConeResize: true})
	if err != nil {
		t.Fatal(err)
	}
	T := 0.6 * sess.sc.retime(sess.p, sess.p.InitialSizes())
	if _, err := sess.Resize(context.Background(), T, Budgets{}); err != nil {
		t.Fatal(err)
	}
	for k, e := range []dag.Edit{
		{Op: dag.EditLoad, Gate: 1704, LoadFF: 0.2650543054337802},
		{Op: dag.EditLoad, Gate: 3354, LoadFF: 0.11897740920349105},
	} {
		if _, err := sess.ApplyEdits([]dag.Edit{e}); err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			if _, err := sess.Resize(context.Background(), T, Budgets{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sess, T
}

// driftProbe replays resizeCone's steps for driftScenario's armed
// query on a session of its own, whose flows run under ctx: the edit's
// own cone misses T by more than coneDriftTol, so resizeCone widens it
// once, and the widened cone is the one that drifts.
type driftProbe struct {
	s         *Session
	T         float64
	members   []int
	x, finish []float64
}

func newDriftProbe(t *testing.T, ctx context.Context) *driftProbe {
	t.Helper()
	s, T := driftScenario(t)
	s.sc.ctx = ctx
	x := append([]float64(nil), s.seedX...)
	s.sc.retime(s.p, x)
	finish := s.sc.arr.AppendFinish(nil)
	members := s.p.ConeMembersTimed(s.pendingCone, x, finish, T)
	if _, err := s.coneAttempt(members, x, finish, T); !errors.Is(err, errConeBoundary) {
		t.Fatalf("edit cone: err = %v, want errConeBoundary", err)
	}
	return &driftProbe{s: s, T: T, members: s.p.WidenMembers(members), x: x, finish: finish}
}

// solve runs coneSolve on the widened cone against target Tc.
func (d *driftProbe) solve(t *testing.T, Tc float64) *Result {
	t.Helper()
	r, err := d.s.coneSolve(d.members, d.x, d.finish, Tc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestConeDriftRepair drives both micro-drift repairs of coneAttempt:
// on driftScenario's armed edit the first cone answer and the shaved
// re-solve both land a hair past T, so only the TILOS repair of the
// first answer keeps the query on the cone path.  The preconditions
// are asserted on a probe twin, so the test fails loudly rather than
// passing vacuously if the scenario stops reaching that branch.
func TestConeDriftRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("c7552 replay")
	}
	probe := newDriftProbe(t, context.Background())
	defer probe.s.Close()
	T := probe.T
	first := probe.solve(t, T)
	if first.CP <= T*(1+1e-9) || first.CP > T*(1+coneDriftTol) {
		t.Fatalf("first cone answer CP/T = %.9f, want a micro-drift in (1, 1+%g]", first.CP/T, coneDriftTol)
	}
	if shaved := probe.solve(t, T-2*(first.CP-T)); shaved.CP <= T*(1+1e-9) {
		t.Fatalf("shaved re-solve met T (CP/T = %.9f): the scenario no longer reaches the TILOS repair", shaved.CP/T)
	}

	sess, _ := driftScenario(t)
	defer sess.Close()
	r, err := sess.Resize(context.Background(), T, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seed != SeedCone || r.ConeFallback {
		t.Fatalf("drifted cone fell back: seed %q, cone fallback %v", r.Seed, r.ConeFallback)
	}
	tm, err := sta.Analyze(sess.p.G, sess.p.Delays(r.X))
	if err != nil {
		t.Fatal(err)
	}
	if tm.CP > T*(1+1e-9) {
		t.Fatalf("cone answer misses T under an independent STA: CP/T = %.9f", tm.CP/T)
	}
}

// TestConeShavedResolveAbort cancels driftScenario's cone query at
// sampled poll points inside the shaved re-solve: each must answer
// ErrCanceled with a partial cone Result (the Resize contract), never
// a bare error.  A probe twin counts the poll points the query spends
// before and inside the re-solve; polls are deterministic, so the
// counted offsets land inside the re-solve of the twin that aborts.
func TestConeShavedResolveAbort(t *testing.T) {
	if testing.Short() {
		t.Skip("c7552 replay")
	}
	var polls int64
	counting := mcmf.WithPollHook(context.Background(), func(int64) error {
		polls++
		return nil
	})
	probe := newDriftProbe(t, counting)
	T := probe.T
	first := probe.solve(t, T)
	before := polls
	probe.solve(t, T-2*(first.CP-T))
	inside := polls - before
	probe.s.Close()
	if inside < 4 {
		t.Fatalf("shaved re-solve polled %d times", inside)
	}

	for _, k := range []int64{1, inside / 4, inside / 2, inside - 1} {
		sess, _ := driftScenario(t)
		ctx, cancel := context.WithCancel(context.Background())
		var n int64
		ctx = mcmf.WithPollHook(ctx, func(int64) error {
			if n++; n == before+k {
				cancel()
			}
			return nil
		})
		r, err := sess.Resize(ctx, T, Budgets{})
		cancel()
		sess.Close()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("cancel at re-solve poll %d/%d: err = %v, want ErrCanceled", k, inside, err)
		}
		if r == nil || !r.Partial || r.Seed != SeedCone || len(r.X) != sess.NumSizable() {
			t.Fatalf("cancel at re-solve poll %d/%d: no partial cone answer (r = %+v)", k, inside, r)
		}
	}
}
