package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"minflo"
)

// allInputs generates every workload's inputs for one seed.
func allInputs(t *testing.T, seed int64) []byte {
	t.Helper()
	cones := func(name string) []int { return synthCones(100 + len(name)) }
	b, err := json.Marshal(struct {
		Table1  []table1Job
		Scaling []scalingJob
		Clients []clientPlan
	}{
		genTable1(seed, false),
		genScaling(seed, false),
		append(genServe(wServeRefine, seed, false, 5000, cones), genServe(wServeEco, seed, false, 5000, cones)...),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := allInputs(t, 7), allInputs(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	if bytes.Equal(allInputs(t, 7), allInputs(t, 8)) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
	// Each piece moves on its own, not just one of them.
	if a, b := genTable1(7, false), genTable1(8, false); a[0].Spec == b[0].Spec {
		t.Error("table1 specs ignore the seed")
	}
	if a, b := genScaling(7, false), genScaling(8, false); a[0].Frac == b[0].Frac {
		t.Error("scaling targets ignore the seed")
	}
	g := func(string) []int { return synthCones(500) }
	if a, b := genServe(wServeEco, 7, false, 50, g), genServe(wServeEco, 8, false, 50, g); a[0].Ops[0] == b[0].Ops[0] {
		t.Error("edit scripts ignore the seed")
	}
}

func TestRefineWalkShape(t *testing.T) {
	plans := genServe(wServeRefine, 3, false, 2000, nil)
	for ci, cp := range plans {
		prev := cp.Anchor[0]
		for k, op := range cp.Ops {
			if op.Frac < refineLo || op.Frac > refineHi {
				t.Fatalf("client %d op %d: target %g·Dmin outside the walk range", ci, k, op.Frac)
			}
			move := math.Abs(op.Frac-prev) / prev
			if op.Jump != ((k+1)%refineJumpEvery == 0) {
				t.Fatalf("client %d op %d: jump flag %v", ci, k, op.Jump)
			}
			if op.Jump && move < refineJumpMin || !op.Jump && move > refineStep*1.0001 {
				t.Fatalf("client %d op %d: moved %.4f (jump %v)", ci, k, move, op.Jump)
			}
			if op.WantSizes != ((k+1)%sizesEvery == 0) {
				t.Fatalf("client %d op %d: want_sizes %v", ci, k, op.WantSizes)
			}
			prev = op.Frac
		}
	}
}

// synthCones gives gate g of an n-gate circuit a cone of n-g gates, so
// that a gate's stratum is its index decile.
func synthCones(n int) []int {
	c := make([]int, n)
	for g := range c {
		c[g] = n - g
	}
	return c
}

func TestEcoScriptShape(t *testing.T) {
	const gates = 200
	k := len(strataOrder)
	for _, cp := range genServe(wServeEco, 5, false, 4000, func(string) []int { return synthCones(gates) }) {
		loads := map[[2]int]float64{}
		edits := make([]int, len(cp.Sessions))
		picked := make([][]int, len(cp.Sessions))
		for s := range picked {
			picked[s] = make([]int, k)
		}
		for j := 0; j+1 < len(cp.Ops); j += 2 {
			e, q := cp.Ops[j], cp.Ops[j+1]
			if !e.Edit || q.Edit || e.Session != q.Session || q.Frac != ecoFrac {
				t.Fatalf("ops %d,%d are not an edit then a query on one session: %+v %+v", j, j+1, e, q)
			}
			i := edits[e.Session]
			edits[e.Session]++
			key := [2]int{e.Session, e.Gate}
			d := e.LoadFF - loads[key]
			if i/k%2 == 0 {
				// Cones shrink with the index, so stratum s holds the
				// gates whose cone-size rank falls in decile s.
				if want := strataOrder[i%k]; (gates-1-e.Gate)*k/gates != want {
					t.Fatalf("edit %d of session %d hits gate %d, outside stratum %d", i, e.Session, e.Gate, want)
				}
				if d <= 0 || d > ecoLoadStep {
					t.Fatalf("upward edit %d moves the load by %g", i, d)
				}
				picked[e.Session][i%k] = e.Gate
			} else {
				if e.Gate != picked[e.Session][i%k] {
					t.Fatalf("downward edit %d hits gate %d, not the gate %d raised a pass earlier", i, e.Gate, picked[e.Session][i%k])
				}
				if d >= 0 || d < -ecoLoadStep || e.LoadFF < 0 {
					t.Fatalf("downward edit %d moves the load from %g to %g", i, loads[key], e.LoadFF)
				}
			}
			loads[key] = e.LoadFF
		}
	}
}

func TestConeSizes(t *testing.T) {
	// c17: G10 feeds G22; G11 feeds G16 and G19; G16 feeds G22 and G23;
	// G19 feeds G23.
	p, err := buildProblem("c17", minflo.CircuitByName)
	if err != nil {
		t.Fatal(err)
	}
	got := coneSizes(p)
	for g, want := range []int{2, 5, 3, 2, 1, 1} {
		if got[g] != want {
			t.Errorf("gate %d (%s): cone of %d gates, want %d", g, p.Labels[g], got[g], want)
		}
	}
}

// The requests the serve clients send in the timed window are exactly a
// prefix of the script generated at set-up: nothing is generated while
// a timer runs.
func TestServeSendsPregeneratedScript(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	for _, wl := range []string{wServeRefine, wServeEco} {
		cfg := config{Seed: 11, Window: 300 * time.Millisecond, Setups: 1, Smoke: true}
		r := newReport(wl)
		env, err := startServe(wl, cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		scripts := make([][]planOp, len(env.plans))
		for ci, p := range env.plans {
			scripts[ci] = append([]planOp(nil), p.Ops...)
		}
		env.drive(cfg.Window)
		env.close()
		for ci, recs := range env.recs {
			plan := env.plans[ci]
			sent := recs[len(plan.Sessions):] // after the anchors
			if len(sent) == 0 || len(sent) > len(scripts[ci]) {
				t.Fatalf("%s client %d sent %d requests", wl, ci, len(sent))
			}
			for k, rec := range sent {
				op := scripts[ci][k]
				want := opRecord{Session: op.Session, Edit: op.Edit}
				if op.Edit {
					want.Gate, want.LoadFF = op.Gate, op.LoadFF
				} else {
					want.T = op.Frac * env.dmin[plan.Sessions[op.Session]]
				}
				got := opRecord{Session: rec.Session, Edit: rec.Edit, Gate: rec.Gate, LoadFF: rec.LoadFF, T: rec.T}
				if got != want {
					t.Fatalf("%s client %d request %d = %+v, script says %+v", wl, ci, k, got, want)
				}
			}
		}
	}
}
