// The flattened (CSR) form of a simple-monotonic coefficient set.
//
// A []Coeffs is convenient to build but expensive to traverse: every
// solver that walks it (dag.Delays, the W-phase SMP relaxation, the
// D-phase sensitivity solves, TILOS's incremental retiming) either
// chases per-vertex Term slices or rebuilds its own view — incoming
// adjacency, dependency order, SCC blocks — from scratch on every call.
// CSR flattens the coupling matrix A once into row-ptr/col/val arrays,
// precomputes the transpose (incoming couplings, the access pattern of
// SolveTranspose), and caches the dependency topology (SCC condensation
// order, block membership, in-block positions) that both smp and lin
// need, so per-iteration work is pure array traversal with zero
// allocation.
//
// Traversal order is kept exactly equal to the []Coeffs paths (row
// terms in Terms order, incoming entries in ascending row order, blocks
// in graph.CondensationOrder order) so results are bit-identical to the
// unflattened reference implementations — asserted by the equivalence
// tests in smp and lin.
package delay

import (
	"minflo/internal/graph"
)

// CSR is the compressed-sparse-row form of the coupling matrix A of a
// coefficient set, with its transpose and dependency topology.
type CSR struct {
	n int

	// Self[i] = a_ii and Const[i] = b_i, hoisted out of the rows.
	Self  []float64
	Const []float64

	// Row storage: all Terms of vertex i, original order, at
	// [rowPtr[i], rowPtr[i+1]).
	rowPtr []int32
	col    []int32
	val    []float64

	// Transpose storage: the couplings (i, a_ij) incoming to column j
	// (only j ≠ i, a ≠ 0 entries), ordered by ascending i, at
	// [tPtr[j], tPtr[j+1]).
	tPtr []int32
	tRow []int32
	tVal []float64

	// Dependency topology: the SCC condensation of the graph with an
	// edge i→j per coupling a_ij (j ≠ i, a ≠ 0), in topological order.
	// Block b holds vertices blockVert[blockPtr[b]:blockPtr[b+1]].
	blockPtr  []int32
	blockVert []int32
	// blockOf[v] is v's block; posInBlock[v] its index inside the block
	// (the build-once replacement for the per-solve pos map of the
	// dense block solvers).
	blockOf    []int32
	posInBlock []int32
	maxBlock   int
}

// NewCSR flattens coeffs. The input is not retained.
func NewCSR(coeffs []Coeffs) *CSR {
	n := len(coeffs)
	c := &CSR{
		n:      n,
		Self:   make([]float64, n),
		Const:  make([]float64, n),
		rowPtr: make([]int32, n+1),
	}
	nnz := 0
	coupled := 0 // j ≠ i, a ≠ 0 entries (transpose size)
	for i := range coeffs {
		nnz += len(coeffs[i].Terms)
		for _, t := range coeffs[i].Terms {
			if t.J != i && t.A != 0 {
				coupled++
			}
		}
	}
	c.col = make([]int32, nnz)
	c.val = make([]float64, nnz)
	pos := int32(0)
	for i := range coeffs {
		c.Self[i] = coeffs[i].Self
		c.Const[i] = coeffs[i].Const
		c.rowPtr[i] = pos
		for _, t := range coeffs[i].Terms {
			c.col[pos] = int32(t.J)
			c.val[pos] = t.A
			pos++
		}
	}
	c.rowPtr[n] = pos

	// Transpose by counting sort over columns; iterating rows in
	// ascending order lands each column's entries in ascending row
	// order — the same order lin's incoming lists were appended in.
	c.tPtr = make([]int32, n+1)
	c.tRow = make([]int32, coupled)
	c.tVal = make([]float64, coupled)
	counts := make([]int32, n)
	for i := range coeffs {
		for _, t := range coeffs[i].Terms {
			if t.J != i && t.A != 0 {
				counts[t.J]++
			}
		}
	}
	for j := 0; j < n; j++ {
		c.tPtr[j+1] = c.tPtr[j] + counts[j]
	}
	cursor := append([]int32(nil), c.tPtr[:n]...)
	for i := range coeffs {
		for _, t := range coeffs[i].Terms {
			if t.J != i && t.A != 0 {
				k := cursor[t.J]
				c.tRow[k] = int32(i)
				c.tVal[k] = t.A
				cursor[t.J] = k + 1
			}
		}
	}

	// Dependency topology via the same digraph smp and lin used to
	// build per call.  Degrees are known (counts is the transpose
	// histogram), so the adjacency is reserved exactly.
	dep := graph.New(n)
	depOut := make([]int32, n)
	for i := range coeffs {
		for _, t := range coeffs[i].Terms {
			if t.J != i && t.A != 0 {
				depOut[i]++
			}
		}
	}
	dep.Reserve(depOut, counts, coupled)
	for i := range coeffs {
		for _, t := range coeffs[i].Terms {
			if t.J != i && t.A != 0 {
				dep.AddEdge(i, t.J)
			}
		}
	}
	groups := dep.CondensationOrder()
	c.blockPtr = make([]int32, len(groups)+1)
	c.blockVert = make([]int32, 0, n)
	c.blockOf = make([]int32, n)
	c.posInBlock = make([]int32, n)
	for b, grp := range groups {
		c.blockPtr[b] = int32(len(c.blockVert))
		for k, v := range grp {
			c.blockVert = append(c.blockVert, int32(v))
			c.blockOf[v] = int32(b)
			c.posInBlock[v] = int32(k)
		}
		if len(grp) > c.maxBlock {
			c.maxBlock = len(grp)
		}
	}
	c.blockPtr[len(groups)] = int32(len(c.blockVert))

	return c
}

// PatchRow overwrites the stored values of row i — Self, Const and the
// coupling coefficients — from k, keeping the sparsity pattern.  The
// transpose and the block partition index the nonzero structure,
// so the patch is only legal when k has the same term count, the same
// column order, and the same zero/nonzero pattern as the stored row;
// PatchRow reports false with the CSR untouched otherwise, and the
// caller rebuilds via NewCSR.  Value-only ECO edits (retype, load)
// always preserve the pattern — every circuit coupling coefficient is
// strictly positive — so in practice false means a structural edit.
func (c *CSR) PatchRow(i int, k *Coeffs) bool {
	lo, hi := c.rowPtr[i], c.rowPtr[i+1]
	if len(k.Terms) != int(hi-lo) {
		return false
	}
	for t, idx := 0, lo; idx < hi; t, idx = t+1, idx+1 {
		tm := k.Terms[t]
		if int32(tm.J) != c.col[idx] || (tm.A == 0) != (c.val[idx] == 0) {
			return false
		}
	}
	c.Self[i] = k.Self
	c.Const[i] = k.Const
	for t, idx := 0, lo; idx < hi; t, idx = t+1, idx+1 {
		tm := k.Terms[t]
		c.val[idx] = tm.A
		if tm.J != i && tm.A != 0 {
			c.setTranspose(int32(i), int32(tm.J), tm.A)
		}
	}
	return true
}

// setTranspose writes value a at transpose entry (row i, column j),
// located by binary search over the column's ascending row list.  The
// entry exists whenever the pattern checks of PatchRow passed.
func (c *CSR) setTranspose(i, j int32, a float64) {
	lo, hi := c.tPtr[j], c.tPtr[j+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if c.tRow[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.tVal[lo] = a
}

// N returns the number of vertices (matrix dimension).
func (c *CSR) N() int { return c.n }

// NNZ returns the number of stored coupling entries.
func (c *CSR) NNZ() int { return len(c.col) }

// Row returns the couplings of vertex i's delay: column indices and
// coefficients, in the original Terms order. Callers must not mutate.
func (c *CSR) Row(i int) ([]int32, []float64) {
	lo, hi := c.rowPtr[i], c.rowPtr[i+1]
	return c.col[lo:hi], c.val[lo:hi]
}

// Incoming returns the couplings entering column j — the vertices i
// whose delay mentions x_j, with a_ij — in ascending i order.
// Callers must not mutate.
func (c *CSR) Incoming(j int) ([]int32, []float64) {
	lo, hi := c.tPtr[j], c.tPtr[j+1]
	return c.tRow[lo:hi], c.tVal[lo:hi]
}

// NumBlocks returns the number of SCC blocks of the dependency graph.
func (c *CSR) NumBlocks() int { return len(c.blockPtr) - 1 }

// Block returns the vertices of block b (topological condensation
// order: dependencies of b live in blocks < b). Callers must not mutate.
func (c *CSR) Block(b int) []int32 {
	return c.blockVert[c.blockPtr[b]:c.blockPtr[b+1]]
}

// BlockOf returns the block index of vertex v.
func (c *CSR) BlockOf(v int) int { return int(c.blockOf[v]) }

// PosInBlock returns v's index within its block.
func (c *CSR) PosInBlock(v int) int { return int(c.posInBlock[v]) }

// MaxBlock returns the largest block size (1 for acyclic couplings).
func (c *CSR) MaxBlock() int { return c.maxBlock }

// LoadAt returns Σ a_ij·x_j + b_i — the x-dependent numerator of
// delay(i) (bit-identical to Coeffs.LoadAt).
func (c *CSR) LoadAt(i int, x []float64) float64 {
	s := c.Const[i]
	lo, hi := c.rowPtr[i], c.rowPtr[i+1]
	for k := lo; k < hi; k++ {
		s += c.val[k] * x[c.col[k]]
	}
	return s
}

// Delay evaluates delay(i) at own size xi and neighbour sizes x.
func (c *CSR) Delay(i int, xi float64, x []float64) float64 {
	return c.Self[i] + c.LoadAt(i, x)/xi
}

// FloorAt returns the smallest achievable delay at the current
// neighbour sizes: the vertex at maxSize driving today's load.
func (c *CSR) FloorAt(i int, x []float64, maxSize float64) float64 {
	return c.Self[i] + c.LoadAt(i, x)/maxSize
}

// DelaysInto fills d[0:N()] with the per-vertex delays at sizes x and
// returns d (entries past N(), if any, are untouched).
func (c *CSR) DelaysInto(d, x []float64) []float64 {
	for i := 0; i < c.n; i++ {
		d[i] = c.Delay(i, x[i], x)
	}
	return d
}
