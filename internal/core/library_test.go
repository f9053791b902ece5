package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"minflo/internal/dag"
	"minflo/internal/gen"
	"minflo/internal/sta"
)

// Answer paths of a trust-region session query, as the library tests
// name them.
const (
	pathCold   = "cold"   // TILOS restart
	pathRefine = "refine" // within δ of the live seed
	pathFar    = "far"    // beyond δ of the live seed and of every library entry
	pathLib    = "lib"    // beyond δ of the live seed, within δ of a library entry
)

// answerPath names the path a clean Result took.
func answerPath(r *Result) string {
	switch {
	case r.Seed == SeedTilos:
		return pathCold
	case r.LibrarySeed:
		return pathLib
	case r.FarSeed:
		return pathFar
	}
	return pathRefine
}

// meetsTarget re-times r.X with a fresh static timing analysis: the
// critical path must meet T and equal the one r reports.
func meetsTarget(t *testing.T, p *dag.Problem, r *Result, T float64) {
	t.Helper()
	tm, err := sta.Analyze(p.G, p.Delays(r.X))
	if err != nil {
		t.Fatal(err)
	}
	if tm.CP > T*(1+1e-9) || tm.CP != r.CP {
		t.Fatalf("independent STA CP %.17g (reported %.17g), target %.17g", tm.CP, r.CP, T)
	}
}

// TestSessionLibraryJump walks mult8 and c1908 back and forth between
// target regions the session has already solved.  Each query's path
// is fixed by the library rules: a far jump files the live seed, a
// jump back within δ of a filed answer starts from it as a refinement
// (and files the live seed in its slot), and a jump just past δ of
// every entry (0.74 against 0.699, 0.55 against 0.583) is a far jump.
// Every answer meets its target under an independent STA, no attempt
// falls back, and the library-started jumps land no further above a
// fresh cold Size than the walk's own refinements do.
func TestSessionLibraryJump(t *testing.T) {
	walk := []struct {
		f    float64
		path string
	}{
		{0.65, pathCold}, {0.652, pathRefine}, {0.648, pathRefine},
		{0.58, pathFar}, {0.581, pathRefine},
		{0.70, pathFar}, {0.699, pathRefine},
		{0.65, pathLib}, {0.651, pathRefine},
		{0.585, pathLib}, {0.583, pathRefine},
		{0.74, pathFar},
		{0.702, pathLib},
		{0.55, pathFar},
		{0.741, pathLib},
		{0.62, pathLib},
	}
	for _, name := range []string{"mult8", "c1908"} {
		t.Run(name, func(t *testing.T) {
			p := mustProblem(t, name)
			tmin := minCP(t, p)
			sess, err := NewSession(p, trOpt())
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			var refRel, libRel []float64
			libIters, farIters := 0, 0
			for qi, w := range walk {
				T := w.f * tmin
				r, err := sess.Resize(context.Background(), T, Budgets{})
				if err != nil {
					t.Fatalf("query %d (%.3f·Dmin): %v", qi, w.f, err)
				}
				if got := answerPath(r); got != w.path || r.SeedFallback {
					t.Fatalf("query %d (%.3f·Dmin): path %s (SeedFallback %v), want %s",
						qi, w.f, got, r.SeedFallback, w.path)
				}
				meetsTarget(t, p, r, T)
				if len(sess.lib) > libCap {
					t.Fatalf("library holds %d entries, cap %d", len(sess.lib), libCap)
				}
				switch w.path {
				case pathLib:
					libIters += r.Iterations
				case pathFar:
					farIters += r.Iterations
				}
				if w.path != pathRefine && w.path != pathLib {
					continue
				}
				cold, err := Size(p, T, Options{})
				if err != nil {
					t.Fatal(err)
				}
				rel := (r.Area - cold.Area) / cold.Area
				if w.path == pathLib {
					libRel = append(libRel, rel)
					t.Logf("library jump to %.3f·Dmin: area %+.2e vs cold, %d iterations", w.f, rel, r.Iterations)
				} else {
					refRel = append(refRel, rel)
				}
			}
			sort.Float64s(refRel)
			sort.Float64s(libRel)
			t.Logf("refinements: area vs cold %+.2e .. %+.2e; library jumps %+.2e .. %+.2e; iterations per library jump %.1f, per far jump %.1f",
				refRel[0], refRel[len(refRel)-1], libRel[0], libRel[len(libRel)-1],
				float64(libIters)/float64(len(libRel)), float64(farIters)/4)
			if worst, bound := libRel[len(libRel)-1], math.Max(refRel[len(refRel)-1], 0); worst > bound {
				t.Fatalf("a library jump lands %+.2e above cold, worse than every refinement of the walk (max %+.2e)", worst, bound)
			}
		})
	}
}

// TestSessionLibraryClearedByBatches: an accepted weight batch (even
// one rewriting the weight already in place) or edit batch empties the
// library, and the live seed it made stale is not filed by the next
// answer — so a jump back to the region solved before the batch runs
// the far-jump schedule, not a library refinement.  A rejected batch
// leaves the library as it was.
func TestSessionLibraryClearedByBatches(t *testing.T) {
	c := gen.RippleAdder(16, gen.FABuffered)
	sess, err := NewEcoSession(mustEco(t, c), trOpt())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tmin := minCP(t, sess.p)
	query := func(f float64, want string) {
		t.Helper()
		r, err := sess.Resize(context.Background(), f*tmin, Budgets{})
		if err != nil {
			t.Fatalf("query %.2f·Dmin: %v", f, err)
		}
		if got := answerPath(r); got != want {
			t.Fatalf("query %.2f·Dmin: path %s, want %s", f, got, want)
		}
	}
	// Fill: 0.6 is filed by the jump to 0.7, and the jump back hits it.
	query(0.6, pathCold)
	query(0.7, pathFar)
	query(0.6, pathLib)
	if len(sess.lib) != 1 {
		t.Fatalf("library holds %d entries, want 1 (the 0.7 answer)", len(sess.lib))
	}

	// A rejected batch changes nothing.
	if err := sess.SetAreaWeights([]int{0}, []float64{-1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if len(sess.lib) != 1 {
		t.Fatal("a rejected weight batch touched the library")
	}

	// A same-value weight batch empties it: the jump back to 0.7 is far,
	// and it does not file the stale 0.6 seed either.
	if err := sess.SetAreaWeight(0, sess.AreaWeight(0)); err != nil {
		t.Fatal(err)
	}
	if len(sess.lib) != 0 {
		t.Fatalf("weight batch left %d library entries", len(sess.lib))
	}
	query(0.7, pathFar)
	if len(sess.lib) != 0 {
		t.Fatal("the answer after a weight batch filed the stale seed")
	}
	query(0.6, pathFar) // files the fresh 0.7 answer
	query(0.7, pathLib)

	// A value edit empties it the same way (a small load on the bit-0 sum
	// output, off the critical path: the seed stays within δ).
	if _, err := sess.ApplyEdits([]dag.Edit{{Op: dag.EditLoad, Gate: c.POs[0].Index, LoadFF: 2}}); err != nil {
		t.Fatal(err)
	}
	if len(sess.lib) != 0 {
		t.Fatalf("edit batch left %d library entries", len(sess.lib))
	}
	query(0.6, pathFar)
	if len(sess.lib) != 0 {
		t.Fatal("the answer after an edit batch filed the stale seed")
	}
}

// TestSessionLibraryReusesEntries: once the library is full, filing
// the live seed (in place of the least recently used entry) and taking
// an entry back as the live seed swap buffers and allocate nothing, so
// the library adds no allocation to a warm session's steady state.
func TestSessionLibraryReusesEntries(t *testing.T) {
	sess, err := NewSession(mustProblem(t, "adder16"), trOpt())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for k := 0; k < libCap; k++ {
		sess.seedT = float64(1000 + 100*k)
		sess.libFile()
	}
	if len(sess.lib) != libCap {
		t.Fatalf("library holds %d entries after %d filings", len(sess.lib), libCap)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sess.seedT++
		sess.libFile()
		sess.libTake(0)
	})
	if allocs != 0 || len(sess.lib) != libCap {
		t.Fatalf("full-library file and take: %v allocs, %d entries; want 0, %d", allocs, len(sess.lib), libCap)
	}
}

// FuzzSessionHistoryReplay drives random histories — queries that jump
// between a few target regions, weight batches, value and structural
// edit batches — through an ECO session and a serial twin.  Both must
// answer every query bit-identically on the same path, every answer
// must meet its target under an independent STA, and the library must
// stay within libCap entries.
func FuzzSessionHistoryReplay(f *testing.F) {
	f.Add(int64(1), []byte{0, 4, 8, 0, 12, 16, 4})
	f.Add(int64(2), []byte{0, 8, 1, 0, 8, 2, 12, 8})
	f.Add(int64(3), []byte{0, 20, 40, 3, 20, 0, 40, 28, 0})
	f.Fuzz(func(t *testing.T, seed int64, program []byte) {
		if len(program) > 16 {
			program = program[:16]
		}
		rng := rand.New(rand.NewSource(seed))
		opt := Options{TrustRegion: 0.05}
		c := gen.RandomLogic(4, 24, seed)
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
			case 0, 1: // a query in one of five regions, with a small offset
				T := (0.56 + 0.04*float64(op/4%5) + 0.002*float64(op/20%3)) * tmin
				ra, errA := sess.Resize(context.Background(), T, Budgets{})
				rb, errB := twin.Resize(context.Background(), T, Budgets{})
				if (errA == nil) != (errB == nil) {
					t.Fatalf("error divergence: %v vs %v", errA, errB)
				}
				if errA != nil {
					continue
				}
				if !bitEqual(ra.X, rb.X) || ra.Iterations != rb.Iterations || answerPath(ra) != answerPath(rb) {
					t.Fatalf("twin replay diverged at T=%g: %s/%d vs %s/%d", T, answerPath(ra), ra.Iterations, answerPath(rb), rb.Iterations)
				}
				meetsTarget(t, sess.p, ra, T)
				if len(sess.lib) > libCap {
					t.Fatalf("library holds %d entries, cap %d", len(sess.lib), libCap)
				}
			case 2: // edit batch, applied to both or neither
				batch := randomCoreBatch(sess.eco.C, rng)
				if op%8 == 2 {
					// Mostly value edits, so the session stays warm.
					batch = []dag.Edit{{Op: dag.EditLoad, Gate: rng.Intn(sess.eco.C.NumGates()), LoadFF: 5 * rng.Float64()}}
				}
				_, errA := sess.ApplyEdits(batch)
				_, errB := twin.ApplyEdits(batch)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("edit acceptance divergence: %v vs %v", errA, errB)
				}
			default: // weight batch, within or beyond the trust region
				g := int(op) % sess.NumSizable()
				w := sess.AreaWeight(g) * (1 + 0.01*float64(op%16))
				errA := sess.SetAreaWeights([]int{g}, []float64{w})
				errB := twin.SetAreaWeights([]int{g}, []float64{w})
				if (errA == nil) != (errB == nil) {
					t.Fatalf("weight acceptance divergence: %v vs %v", errA, errB)
				}
			}
		}
	})
}
