package tilos

import (
	"fmt"
	"math"
	"testing"

	"minflo/internal/circuit"
	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/sta"
	"minflo/internal/tech"
)

// sweepSize is Size with the greedy loop as it stood before the
// sensitivity cache: every move re-evaluates every vertex on the
// critical path.  It is the reference the cached loop is held to, and
// its Evals counts every sizable path vertex of every move.
func sweepSize(p *dag.Problem, t float64, x0 []float64, opt Options) (*Result, error) {
	opt, x, err := prepare(p, x0, opt)
	if err != nil {
		return nil, err
	}
	arr, err := sta.NewArrivals(p.G, p.Delays(x))
	if err != nil {
		return nil, err
	}
	csr := p.CSR()
	var changed []int
	var newDelays []float64
	var path []int
	moves, evals := 0, 0
	for {
		cp := arr.CP()
		if cp <= t {
			return &Result{X: x, CP: cp, Area: p.Area(x), Moves: moves, Evals: evals}, nil
		}
		if moves >= opt.MaxMoves {
			return nil, fmt.Errorf("%w: move budget exhausted at CP %g (target %g)", ErrInfeasible, cp, t)
		}
		path = arr.AppendCriticalPath(path[:0])
		best, bestSens := -1, 0.0
		for pi, v := range path {
			if v >= p.NumSizable {
				continue
			}
			evals++
			if x[v] >= p.MaxSize {
				continue
			}
			nx := x[v] * opt.Bump
			if nx > p.MaxSize {
				nx = p.MaxSize
			}
			delta := deltaOwn(csr, x, v, nx)
			if pi > 0 {
				if u := path[pi-1]; u < p.NumSizable {
					delta += deltaLoad(csr, x, u, v, nx)
				}
			}
			dArea := p.AreaW[v] * (nx - x[v])
			if dArea <= 0 {
				continue
			}
			sens := -delta / dArea
			if sens > bestSens {
				bestSens = sens
				best = v
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("%w: no improving move at CP %g (target %g)", ErrInfeasible, cp, t)
		}
		nx := x[best] * opt.Bump
		if nx > p.MaxSize {
			nx = p.MaxSize
		}
		x[best] = nx
		moves++
		changed = append(changed[:0], best)
		newDelays = append(newDelays[:0], csr.Delay(best, x[best], x))
		rows, _ := csr.Incoming(best)
		for _, u := range rows {
			changed = append(changed, int(u))
			newDelays = append(newDelays, csr.Delay(int(u), x[u], x))
		}
		arr.SetDelays(changed, newDelays)
	}
}

// sameAsSweep runs Size and sweepSize on one instance and reports the
// first difference: the error text, or X, CP and Area bit for bit and
// the move count.  It also fails when the cache evaluated more
// sensitivities than the full sweep.  On agreement it returns Size's
// result, nil when both runs failed alike.
func sameAsSweep(p *dag.Problem, t float64, x0 []float64, opt Options) (*Result, error) {
	got, gerr := Size(p, t, x0, opt)
	want, werr := sweepSize(p, t, x0, opt)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		return nil, fmt.Errorf("error %v, full sweep %v", gerr, werr)
	}
	if gerr != nil {
		return nil, nil
	}
	if got.Moves != want.Moves {
		return nil, fmt.Errorf("%d moves, full sweep %d", got.Moves, want.Moves)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			return nil, fmt.Errorf("x[%d] = %v, full sweep %v", i, got.X[i], want.X[i])
		}
	}
	if math.Float64bits(got.CP) != math.Float64bits(want.CP) || math.Float64bits(got.Area) != math.Float64bits(want.Area) {
		return nil, fmt.Errorf("CP %v area %v, full sweep CP %v area %v", got.CP, got.Area, want.CP, want.Area)
	}
	if got.Evals > want.Evals {
		return nil, fmt.Errorf("%d sensitivity evaluations, full sweep %d", got.Evals, want.Evals)
	}
	return got, nil
}

// dmin is the critical path of p at minimum sizes.
func dmin(t testing.TB, p *dag.Problem) float64 {
	t.Helper()
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		t.Fatal(err)
	}
	return tm.CP
}

// The cached loop makes the full sweep's moves on every Table-1 row,
// at the paper spec and two looser targets.
func TestTable1MatchesFullSweep(t *testing.T) {
	rows := []struct {
		name string
		ckt  func() *circuit.Circuit
		spec float64
	}{
		{"adder32", func() *circuit.Circuit { return gen.RippleAdder(32, gen.FABuffered) }, 0.5},
		{"adder256", func() *circuit.Circuit { return gen.RippleAdder(256, gen.FABuffered) }, 0.5},
		{"c432", gen.C432, 0.4},
		{"c499", gen.C499, 0.57},
		{"c880", gen.C880, 0.4},
		{"c1355", gen.C1355, 0.4},
		{"c1908", gen.C1908, 0.4},
		{"c2670", gen.C2670, 0.4},
		{"c3540", gen.C3540, 0.4},
		{"c5315", gen.C5315, 0.4},
		{"c6288", gen.C6288, 0.4},
		{"c7552", gen.C7552, 0.4},
	}
	m := delay.NewModel(tech.Default013())
	for _, r := range rows {
		p, err := dag.GateLevel(r.ckt(), m)
		if err != nil {
			t.Fatal(err)
		}
		d := dmin(t, p)
		for _, spec := range []float64{r.spec, r.spec + 0.15, r.spec + 0.3} {
			res, err := sameAsSweep(p, spec*d, nil, Options{})
			if err != nil {
				t.Fatalf("%s at %.2f·Dmin: %v", r.name, spec, err)
			}
			if res == nil {
				t.Fatalf("%s at %.2f·Dmin: infeasible", r.name, spec)
			}
			t.Logf("%s at %.2f·Dmin: %d moves, %d evaluations", r.name, spec, res.Moves, res.Evals)
		}
	}
}

// Random logic at gate and transistor level, from minimum sizes and
// warm starts, with coarse and fine bumps, and through both
// infeasibility exits.  At transistor level the coupling between
// vertices is not graph adjacency, which is where the cache's
// Incoming/Row invalidation is easiest to get wrong.
func TestRandomLogicMatchesFullSweep(t *testing.T) {
	m := delay.NewModel(tech.Default013())
	for seed := int64(1); seed <= 6; seed++ {
		ckt := gen.RandomLogic(6, 40+10*int(seed), seed)
		for _, level := range []struct {
			name  string
			build func(*circuit.Circuit, *delay.Model) (*dag.Problem, error)
		}{{"gate", dag.GateLevel}, {"transistor", dag.TransistorLevel}} {
			p, err := level.build(ckt, m)
			if err != nil {
				t.Fatal(err)
			}
			d := dmin(t, p)
			for _, c := range []struct {
				frac float64
				opt  Options
			}{
				{0.7, Options{}},
				{0.5, Options{Bump: 1.05}},
				{0.45, Options{Bump: 1.5}},
				{0.5, Options{MaxMoves: 7}},
				{0.01, Options{}},
			} {
				first, err := sameAsSweep(p, c.frac*d, nil, c.opt)
				if err != nil {
					t.Fatalf("seed %d %s at %.2f·Dmin %+v: %v", seed, level.name, c.frac, c.opt, err)
				}
				if first == nil {
					continue
				}
				if _, err := sameAsSweep(p, 0.9*c.frac*d, first.X, c.opt); err != nil {
					t.Fatalf("seed %d %s warm from %.2f·Dmin %+v: %v", seed, level.name, c.frac, c.opt, err)
				}
			}
		}
	}
}

// FuzzTilosMatchesFullSweep sizes a random logic DAG, at gate or
// transistor level, toward a decoded target with a decoded bump and
// move budget, and holds the cached loop to the full sweep.
func FuzzTilosMatchesFullSweep(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(3), uint8(128), uint8(10), uint8(0), false)
	f.Add(int64(7), uint8(60), uint8(5), uint8(100), uint8(5), uint8(0), true)
	f.Add(int64(3), uint8(20), uint8(2), uint8(1), uint8(50), uint8(4), true)
	m := delay.NewModel(tech.Default013())
	f.Fuzz(func(t *testing.T, seed int64, gates, pis, frac, bump, budget uint8, transistor bool) {
		ckt := gen.RandomLogic(1+int(pis%8), 1+int(gates%80), seed)
		build := dag.GateLevel
		if transistor {
			build = dag.TransistorLevel
		}
		p, err := build(ckt, m)
		if err != nil {
			t.Skip(err)
		}
		opt := Options{Bump: 1.01 + float64(bump)/100, MaxMoves: int(budget)}
		if _, err := sameAsSweep(p, float64(frac)/255*dmin(t, p), nil, opt); err != nil {
			t.Fatal(err)
		}
	})
}
