package delay

import (
	"math"
	"math/rand"
	"testing"
)

// randomCoeffs builds a coefficient set with acyclic couplings plus a
// few mutually-coupled (block) pairs, some zero-A and duplicate terms.
func randomCoeffs(rng *rand.Rand, n int) []Coeffs {
	ks := make([]Coeffs, n)
	for i := 0; i < n; i++ {
		ks[i].Self = rng.Float64()
		ks[i].Const = rng.Float64() * 5
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				a := rng.Float64() * 2
				if rng.Intn(8) == 0 {
					a = 0 // exercise zero-coefficient filtering
				}
				ks[i].Terms = append(ks[i].Terms, Term{J: j, A: a})
			}
		}
		// Occasional back edge to create a 2-cycle block.
		if i > 0 && rng.Intn(5) == 0 {
			ks[i].Terms = append(ks[i].Terms, Term{J: i - 1, A: 0.1 * rng.Float64()})
		}
	}
	return ks
}

func TestCSRMatchesCoeffsEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		ks := randomCoeffs(rng, n)
		csr := NewCSR(ks)
		x := make([]float64, n)
		for i := range x {
			x[i] = 1 + rng.Float64()*9
		}
		for i := 0; i < n; i++ {
			// Bit-identical, not merely close: same summation order.
			if got, want := csr.LoadAt(i, x), ks[i].LoadAt(x); got != want {
				t.Fatalf("trial %d: LoadAt(%d) = %v, want %v", trial, i, got, want)
			}
			if got, want := csr.Delay(i, x[i], x), ks[i].Delay(x[i], x); got != want {
				t.Fatalf("trial %d: Delay(%d) = %v, want %v", trial, i, got, want)
			}
			if got, want := csr.FloorAt(i, x, 16), ks[i].FloorAt(x, 16); got != want {
				t.Fatalf("trial %d: FloorAt(%d) = %v, want %v", trial, i, got, want)
			}
		}
		d := csr.DelaysInto(make([]float64, n), x)
		want := Delays(ks, x)
		for i := range d {
			if d[i] != want[i] {
				t.Fatalf("trial %d: DelaysInto[%d] = %v, want %v", trial, i, d[i], want[i])
			}
		}
	}
}

func TestCSRTransposeIsExactTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(15)
		ks := randomCoeffs(rng, n)
		csr := NewCSR(ks)
		// Rebuild incoming lists the way lin.SolveTranspose used to.
		type inc struct {
			i int
			a float64
		}
		incoming := make([][]inc, n)
		for i := range ks {
			for _, tm := range ks[i].Terms {
				if tm.J == i || tm.A == 0 {
					continue
				}
				incoming[tm.J] = append(incoming[tm.J], inc{i, tm.A})
			}
		}
		for j := 0; j < n; j++ {
			rows, vals := csr.Incoming(j)
			if len(rows) != len(incoming[j]) {
				t.Fatalf("trial %d: column %d has %d entries, want %d", trial, j, len(rows), len(incoming[j]))
			}
			for k := range rows {
				if int(rows[k]) != incoming[j][k].i || vals[k] != incoming[j][k].a {
					t.Fatalf("trial %d: column %d entry %d = (%d,%g), want (%d,%g)",
						trial, j, k, rows[k], vals[k], incoming[j][k].i, incoming[j][k].a)
				}
			}
		}
	}
}

func TestCSRBlocksTopologicalAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(15)
		ks := randomCoeffs(rng, n)
		csr := NewCSR(ks)
		seen := make([]bool, n)
		count := 0
		maxBlock := 0
		for b := 0; b < csr.NumBlocks(); b++ {
			blk := csr.Block(b)
			if len(blk) > maxBlock {
				maxBlock = len(blk)
			}
			for k, v := range blk {
				if seen[v] {
					t.Fatalf("trial %d: vertex %d in two blocks", trial, v)
				}
				seen[v] = true
				count++
				if csr.BlockOf(int(v)) != b || csr.PosInBlock(int(v)) != k {
					t.Fatalf("trial %d: membership index wrong for vertex %d", trial, v)
				}
			}
		}
		if count != n {
			t.Fatalf("trial %d: blocks cover %d of %d vertices", trial, count, n)
		}
		if maxBlock != csr.MaxBlock() {
			t.Fatalf("trial %d: MaxBlock %d, observed %d", trial, csr.MaxBlock(), maxBlock)
		}
		// Topological: an edge i→j (vertex i's delay mentions x_j) never
		// points into an earlier block — blocks are in condensation order.
		for i := 0; i < n; i++ {
			cols, vals := csr.Row(i)
			for k := range cols {
				j := int(cols[k])
				if j == i || vals[k] == 0 {
					continue
				}
				if csr.BlockOf(j) < csr.BlockOf(i) {
					t.Fatalf("trial %d: edge %d→%d goes backwards in condensation order", trial, i, j)
				}
			}
		}
	}
}

func TestCSREmptyAndSingle(t *testing.T) {
	c := NewCSR(nil)
	if c.N() != 0 || c.NumBlocks() != 0 || c.NNZ() != 0 {
		t.Fatal("empty CSR malformed")
	}
	c = NewCSR([]Coeffs{{Self: 2, Const: 3}})
	if c.N() != 1 || c.MaxBlock() != 1 {
		t.Fatal("single-vertex CSR malformed")
	}
	if d := c.Delay(0, 2, []float64{2}); math.Abs(d-3.5) > 1e-15 {
		t.Fatalf("delay = %g, want 3.5", d)
	}
}
