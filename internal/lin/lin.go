// Package lin provides the (block-)triangular linear algebra of the
// D-phase setup (paper §2.3, eq. 6–7).
//
// With D = diag(delay(i)) and A the non-negative coupling matrix of the
// simple monotonic decomposition, the system (D−A)X = B is (block)
// upper triangular in a topological numbering of the dependency graph
// (i → j when a_ij ≠ 0).  For gate sizing the blocks are single
// vertices; for transistor sizing, mutually-loading devices inside one
// gate form small blocks (hence the SCC machinery).
//
// The first-order area sensitivity of a budget change ΔD is
//
//	Δ(wᵀX) ≈ −Σ_i C_i·ΔD_i,   C_i = x_i·y_i,  (D−A)ᵀ y = w,
//
// with w the area weights.  Because A is non-negative and nilpotent
// across blocks, y > 0, hence every C_i > 0 — the solvers verify this.
//
// A Solver binds to a shared delay.CSR (couplings, transpose, SCC
// blocks, in-block positions — all built once per problem) and re-solves
// through the *Into methods with zero heap allocations: the dense SCC
// blocks are factored by an in-place flat-array LU instead of per-call
// [][]float64 matrices, and block membership comes from the CSR's
// precomputed index instead of a per-call map.
package lin

import (
	"fmt"
	"math"

	"minflo/internal/delay"
)

// Solver is the persistent (block-)triangular engine for one
// coefficient set.
type Solver struct {
	csr    *delay.CSR
	diag   []float64 // d_i − a_ii, rewritten per solve
	solved []bool    // defensive dependency-order check, cleared per solve

	// Dense-block scratch: m is maxBlock² flat row-major, rhs/sol are
	// maxBlock long.
	m, rhs, sol []float64

	y []float64 // dual scratch for SensitivitiesInto
}

// NewSolver builds a persistent solver over the coupling structure.
func NewSolver(csr *delay.CSR) *Solver {
	n, mb := csr.N(), csr.MaxBlock()
	return &Solver{
		csr:    csr,
		diag:   make([]float64, n),
		solved: make([]bool, n),
		m:      make([]float64, mb*mb),
		rhs:    make([]float64, mb),
		sol:    make([]float64, mb),
		y:      make([]float64, n),
	}
}

// SetParallel does nothing: the transpose solve is serial.
//
// Deprecated: kept only so cmd/minflobench, its one remaining user,
// still compiles; it goes with that benchmark's replica.
func (s *Solver) SetParallel(any) {}

// SensitivitiesInto computes C_i = x_i·y_i where (D−A)ᵀ y = w, writing
// into c (length N). d must be the delay budgets (d_i > a_ii required),
// x the current sizes, w the area weights.
func (s *Solver) SensitivitiesInto(c, x, d, w []float64) error {
	n := s.csr.N()
	if len(c) != n || len(x) != n || len(d) != n || len(w) != n {
		return fmt.Errorf("lin: length mismatch")
	}
	if err := s.SolveTransposeInto(s.y, d, w); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if s.y[i] <= 0 {
			return fmt.Errorf("lin: non-positive dual y[%d] = %g (model invariant broken)", i, s.y[i])
		}
		c[i] = x[i] * s.y[i]
	}
	return nil
}

// SolveTransposeInto solves (D−A)ᵀ y = w into y by block-forward
// substitution over the SCC condensation.
//
// Row j of the transpose system reads
//
//	(d_j − a_jj)·y_j − Σ_{i : a_ij ≠ 0, i≠j} a_ij·y_i = w_j .
//
// y_j therefore needs y_i for the vertices i whose delay mentions x_j —
// the *predecessors* of j in the dependency graph — so blocks are
// processed in condensation order, reading the precomputed transpose.
func (s *Solver) SolveTransposeInto(y, d, w []float64) error {
	csr := s.csr
	n := csr.N()
	if len(y) != n || len(d) != n || len(w) != n {
		return fmt.Errorf("lin: length mismatch")
	}
	diag := s.diag
	for j := 0; j < n; j++ {
		diag[j] = d[j] - csr.Self[j]
		if diag[j] <= 0 || math.IsNaN(diag[j]) {
			return fmt.Errorf("lin: budget %g at vertex %d does not exceed intrinsic delay %g",
				d[j], j, csr.Self[j])
		}
		s.solved[j] = false
	}
	for b := 0; b < csr.NumBlocks(); b++ {
		if err := s.transposeBlock(b, y, w); err != nil {
			return err
		}
	}
	return nil
}

// transposeBlock solves block b of the transpose system into y.
func (s *Solver) transposeBlock(b int, y, w []float64) error {
	csr := s.csr
	diag := s.diag
	grp := csr.Block(b)
	if len(grp) == 1 {
		j := int(grp[0])
		rhs := w[j]
		rows, vals := csr.Incoming(j)
		for k := range rows {
			i := int(rows[k])
			if !s.solved[i] {
				return fmt.Errorf("lin: dependency order violated at %d<-%d", j, i)
			}
			rhs += vals[k] * y[i]
		}
		y[j] = rhs / diag[j]
		s.solved[j] = true
		return nil
	}
	// Dense block solve for the SCC {grp}: off-block terms use
	// already-solved y values; in-block terms form the matrix.
	m := len(grp)
	M, rhs := s.m[:m*m], s.rhs[:m]
	for i := range M {
		M[i] = 0
	}
	for k, ji := range grp {
		j := int(ji)
		M[k*m+k] = diag[j]
		rhs[k] = w[j]
		rows, vals := csr.Incoming(j)
		for t := range rows {
			i := int(rows[t])
			if csr.BlockOf(i) == b {
				M[k*m+csr.PosInBlock(i)] -= vals[t]
			} else {
				if !s.solved[i] {
					return fmt.Errorf("lin: block dependency order violated at %d<-%d", j, i)
				}
				rhs[k] += vals[t] * y[i]
			}
		}
	}
	if err := gaussFlat(M, rhs, s.sol[:m], m); err != nil {
		return err
	}
	for k, ji := range grp {
		y[ji] = s.sol[k]
		s.solved[ji] = true
	}
	return nil
}

// SolveForwardInto solves (D−A)X = B (the paper's eq. 6) into x by
// block-backward substitution — used by tests and tools to
// cross-validate the decomposition: plugging the returned X back into
// the delay model must reproduce d.
func (s *Solver) SolveForwardInto(x, d, b []float64) error {
	csr := s.csr
	n := csr.N()
	if len(x) != n || len(d) != n || len(b) != n {
		return fmt.Errorf("lin: length mismatch")
	}
	diag := s.diag
	for j := 0; j < n; j++ {
		diag[j] = d[j] - csr.Self[j]
		if diag[j] <= 0 {
			return fmt.Errorf("lin: budget at vertex %d does not exceed intrinsic delay", j)
		}
		s.solved[j] = false
	}
	// Row i: (d_i − a_ii)x_i − Σ a_ij x_j = b_i; x_i needs successors
	// x_j, so process condensation blocks in reverse order.
	for bi := csr.NumBlocks() - 1; bi >= 0; bi-- {
		grp := csr.Block(bi)
		if len(grp) == 1 {
			i := int(grp[0])
			rhs := b[i]
			cols, vals := csr.Row(i)
			for k := range cols {
				j := int(cols[k])
				if j == i {
					continue
				}
				if !s.solved[j] {
					return fmt.Errorf("lin: forward order violated at %d->%d", i, j)
				}
				rhs += vals[k] * x[j]
			}
			x[i] = rhs / diag[i]
			s.solved[i] = true
			continue
		}
		m := len(grp)
		M, rhs := s.m[:m*m], s.rhs[:m]
		for k := range M {
			M[k] = 0
		}
		for k, ii := range grp {
			i := int(ii)
			M[k*m+k] = diag[i]
			rhs[k] = b[i]
			cols, vals := csr.Row(i)
			for t := range cols {
				j := int(cols[t])
				if j == i {
					continue
				}
				if csr.BlockOf(j) == bi {
					M[k*m+csr.PosInBlock(j)] -= vals[t]
				} else {
					if !s.solved[j] {
						return fmt.Errorf("lin: forward block order violated at %d->%d", i, j)
					}
					rhs[k] += vals[t] * x[j]
				}
			}
		}
		if err := gaussFlat(M, rhs, s.sol[:m], m); err != nil {
			return err
		}
		for k, ii := range grp {
			x[ii] = s.sol[k]
			s.solved[ii] = true
		}
	}
	return nil
}

// gaussFlat solves the n×n row-major system M·x = b in place (M and b
// are destroyed) with partial pivoting, writing the solution into x.
// The arithmetic matches the historical [][]float64 implementation
// operation for operation, so results are bit-identical.
func gaussFlat(M, b, x []float64, n int) error {
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(M[r*n+col]) > math.Abs(M[p*n+col]) {
				p = r
			}
		}
		if math.Abs(M[p*n+col]) < 1e-300 {
			return fmt.Errorf("lin: singular block matrix")
		}
		if p != col {
			for c := 0; c < n; c++ {
				M[col*n+c], M[p*n+c] = M[p*n+c], M[col*n+c]
			}
			b[col], b[p] = b[p], b[col]
		}
		inv := 1 / M[col*n+col]
		for r := col + 1; r < n; r++ {
			f := M[r*n+col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				M[r*n+c] -= f * M[col*n+c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= M[r*n+c] * x[c]
		}
		x[r] = s / M[r*n+r]
	}
	return nil
}

// Sensitivities computes C_i = x_i·y_i with a throwaway Solver.  Code
// on the optimizer's hot path should hold a Solver and use
// SensitivitiesInto.
func Sensitivities(coeffs []delay.Coeffs, x, d, w []float64) ([]float64, error) {
	n := len(coeffs)
	if len(x) != n || len(d) != n || len(w) != n {
		return nil, fmt.Errorf("lin: length mismatch")
	}
	c := make([]float64, n)
	if err := NewSolver(delay.NewCSR(coeffs)).SensitivitiesInto(c, x, d, w); err != nil {
		return nil, err
	}
	return c, nil
}

// SolveTranspose solves (D−A)ᵀ y = w with a throwaway Solver.
func SolveTranspose(coeffs []delay.Coeffs, d, w []float64) ([]float64, error) {
	y := make([]float64, len(coeffs))
	if err := NewSolver(delay.NewCSR(coeffs)).SolveTransposeInto(y, d, w); err != nil {
		return nil, err
	}
	return y, nil
}

// SolveForward solves (D−A)X = B with a throwaway Solver.
func SolveForward(coeffs []delay.Coeffs, d, b []float64) ([]float64, error) {
	x := make([]float64, len(coeffs))
	if err := NewSolver(delay.NewCSR(coeffs)).SolveForwardInto(x, d, b); err != nil {
		return nil, err
	}
	return x, nil
}
