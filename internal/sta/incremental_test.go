package sta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"minflo/internal/graph"
)

func TestArrivalsMatchesAnalyzeInitially(t *testing.T) {
	g, d := diamond()
	a, err := NewArrivals(g, d)
	if err != nil {
		t.Fatal(err)
	}
	tm, _ := Analyze(g, d)
	for v := 0; v < g.N(); v++ {
		if a.at[v] != tm.AT[v] {
			t.Fatalf("AT(%d) = %g, want %g", v, a.at[v], tm.AT[v])
		}
	}
	if a.CP() != tm.CP {
		t.Fatalf("CP %g != %g", a.CP(), tm.CP)
	}
}

func TestArrivalsPointUpdate(t *testing.T) {
	g, d := diamond()
	a, _ := NewArrivals(g, d)
	// Speed up vertex 1 (the critical one): 5 -> 1.
	a.SetDelays([]int{1}, []float64{1})
	d[1] = 1
	tm, _ := Analyze(g, d)
	for v := 0; v < g.N(); v++ {
		if a.at[v] != tm.AT[v] {
			t.Fatalf("after update AT(%d) = %g, want %g", v, a.at[v], tm.AT[v])
		}
	}
	if a.CP() != tm.CP {
		t.Fatalf("after update CP %g != %g", a.CP(), tm.CP)
	}
}

func TestArrivalsLengthMismatch(t *testing.T) {
	g, _ := diamond()
	if _, err := NewArrivals(g, []float64{1}); err == nil {
		t.Fatal("expected error")
	}
}

func TestArrivalsCycle(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if _, err := NewArrivals(g, []float64{1, 1}); err == nil {
		t.Fatal("expected cycle error")
	}
}

// sameArrivals reports the first difference between the incremental
// state a and a fresh NewArrivals over the same delays, comparing AT,
// finish and CP bit for bit, CP against a full scan of finish, and
// the critical path's end against the first vertex attaining CP.
func sameArrivals(a *Arrivals) error {
	fresh, err := NewArrivals(a.g, a.d)
	if err != nil {
		return err
	}
	for v := range a.d {
		if math.Float64bits(a.at[v]) != math.Float64bits(fresh.at[v]) {
			return fmt.Errorf("AT(%d) = %v, fresh %v", v, a.at[v], fresh.at[v])
		}
		if math.Float64bits(a.finish[v]) != math.Float64bits(fresh.finish[v]) {
			return fmt.Errorf("finish(%d) = %v, fresh %v", v, a.finish[v], fresh.finish[v])
		}
	}
	full := 0.0
	for _, f := range a.finish {
		if f > full {
			full = f
		}
	}
	cp, fcp := a.CP(), fresh.CP()
	if math.Float64bits(cp) != math.Float64bits(fcp) || math.Float64bits(cp) != math.Float64bits(full) {
		return fmt.Errorf("CP = %v, fresh %v, full scan %v", cp, fcp, full)
	}
	end := -1
	for v, f := range a.finish {
		if f >= cp-1e-12 {
			end = v
			break
		}
	}
	if got := a.criticalEnd(cp - 1e-12); got != end {
		return fmt.Errorf("critical path ends at %d, first vertex at CP is %d", got, end)
	}
	for _, w := range a.pending {
		if w != 0 {
			return fmt.Errorf("worklist bitset not clear after a path search")
		}
	}
	if a.neg != fresh.neg {
		return fmt.Errorf("negative-delay count %d, fresh %d", a.neg, fresh.neg)
	}
	return nil
}

// Property: after an arbitrary sequence of delay updates — point
// batches (some negative, which switches CP to the full scan) and
// all-vertex updates like core's retime — the incremental state is
// bit-identical to a fresh forward pass.
func TestQuickIncrementalMatchesFull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(200) // up to four worklist words
		g, d := randomDAG(rng, n)
		for i := range d {
			d[i] *= 0.1 // inexact binary fractions
		}
		a, err := NewArrivals(g, d)
		if err != nil {
			return false
		}
		delay := func() float64 {
			if rng.Intn(5) == 0 {
				return -float64(rng.Intn(4)) * 0.3
			}
			return float64(rng.Intn(12)) * 0.1
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		for round := 0; round < 16; round++ {
			var vs []int
			var nd []float64
			if rng.Intn(4) == 0 {
				// Every vertex, most of them unchanged.
				vs = all
				nd = append([]float64(nil), a.d...)
				for i := range nd {
					if rng.Intn(3) == 0 {
						nd[i] = delay()
					}
				}
			} else {
				// 1-3 updates; a repeated vertex takes its last value.
				for k := 1 + rng.Intn(3); k > 0; k-- {
					vs = append(vs, rng.Intn(n))
					nd = append(nd, delay())
				}
				for i := range vs {
					for j := i + 1; j < len(vs); j++ {
						if vs[j] == vs[i] {
							nd[i] = nd[j]
						}
					}
				}
			}
			a.SetDelays(vs, nd)
			if err := sameArrivals(a); err != nil {
				t.Logf("seed %d round %d: %v", seed, round, err)
				return false
			}
		}
		// Reseed back to non-negative delays restores the sink-only CP.
		if err := a.Reseed(d); err != nil || a.neg != 0 {
			return false
		}
		return sameArrivals(a) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the incremental critical path is a real path achieving CP.
func TestQuickIncrementalCriticalPath(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g, d := randomDAG(rng, n)
		a, err := NewArrivals(g, d)
		if err != nil {
			return false
		}
		// A few updates first.
		for i := 0; i < 5; i++ {
			v := rng.Intn(n)
			nd := float64(rng.Intn(12))
			d[v] = nd
			a.SetDelays([]int{v}, []float64{nd})
		}
		path := a.AppendCriticalPath(nil)
		if len(path) == 0 {
			return false
		}
		sum := 0.0
		for _, v := range path {
			sum += d[v]
		}
		return math.Abs(sum-a.CP()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The per-move calls of TILOS allocate nothing once the engine exists.
func TestArrivalsMoveZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 500
	g, d := randomDAG(rng, n)
	a, err := NewArrivals(g, d)
	if err != nil {
		t.Fatal(err)
	}
	vs, nd := []int{0, 0, 0}, []float64{0, 0, 0}
	if allocs := testing.AllocsPerRun(200, func() {
		for i := range vs {
			vs[i] = rng.Intn(n)
			nd[i] = float64(1 + rng.Intn(12))
		}
		a.SetDelays(vs, nd)
	}); allocs != 0 {
		t.Errorf("SetDelays: %v allocs/op, want 0", allocs)
	}
	path := make([]int, 0, n)
	if allocs := testing.AllocsPerRun(200, func() {
		path = a.AppendCriticalPath(path[:0])
	}); allocs != 0 {
		t.Errorf("AppendCriticalPath: %v allocs/op, want 0", allocs)
	}
}

// FuzzArrivals decodes a DAG, its delays and an update stream from the
// input and checks the incremental state bitwise against a fresh
// forward pass after every update.
func FuzzArrivals(f *testing.F) {
	f.Add([]byte{5, 6, 0, 1, 1, 2, 0, 3, 3, 4, 2, 4, 1, 4, 8, 12, 16, 20, 4, 1, 200, 3, 0, 9, 1, 40})
	f.Add([]byte{8, 20, 0, 7, 1, 6, 2, 5, 3, 4, 0, 1, 1, 2, 2, 3, 3, 7, 4, 5, 5, 6, 6, 7,
		10, 250, 30, 12, 0, 14, 3, 9, 8, 5, 5, 1, 1, 7, 4, 240, 2, 0, 3, 5, 6, 7, 8, 9, 10, 0, 2, 3, 100})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// Delays are quarter units in [-32, 31.75]: exact binary
		// fractions, negatives included.
		delay := func() float64 { return float64(int8(next())) / 4 }
		n := 1 + int(next()) // up to four worklist words
		g := graph.New(n)
		for m := int(next()) % (3*n + 1); m > 0; m-- {
			u, v := int(next())%n, int(next())%n
			if u == v {
				continue
			}
			g.AddEdge(min(u, v), max(u, v))
		}
		d := make([]float64, n)
		for i := range d {
			d[i] = delay()
		}
		a, err := NewArrivals(g, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameArrivals(a); err != nil {
			t.Fatal(err)
		}
		for step := 0; len(data) > 0 && step < 64; step++ {
			op := next()
			var vs []int
			var nd []float64
			if op%8 == 0 {
				for v := 0; v < n; v++ {
					vs = append(vs, v)
					nd = append(nd, delay())
				}
			} else {
				v := int(next()) % n
				vs, nd = []int{v}, []float64{delay()}
			}
			a.SetDelays(vs, nd)
			if err := sameArrivals(a); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}

func BenchmarkIncrementalUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 4000
	g := graph.New(n)
	for i := 0; i < 3*n; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		g.AddEdge(u, v)
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(1 + rng.Intn(9))
	}
	a, err := NewArrivals(g, d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := rng.Intn(n)
		nd := float64(1 + rng.Intn(12))
		a.SetDelays([]int{v}, []float64{nd})
	}
}
