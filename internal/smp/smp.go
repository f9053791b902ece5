// Package smp solves the W-phase Simple Monotonic Program
// (paper §2.3.2, eq. 11):
//
//	minimize   Σ w_i·x_i
//	subject to delay(i) ≤ d_i       i.e.  x_i ≥ (Σ a_ij x_j + b_i)/(d_i − a_ii)
//	           lo ≤ x_i ≤ hi
//
// Because every right-hand side is monotone non-decreasing in every
// x_j, the feasible set is closed under pointwise minimum and the
// unique minimal solution is the least fixed point of
//
//	x ← clamp( (A·x + b) ⊘ (d − diag(A)) ).
//
// A Solver iterates Gauss–Seidel sweeps in dependency order (exact in
// one sweep for acyclic dependencies, as in gate sizing; geometric for
// the small intra-gate blocks of transistor sizing), matching the
// O(|V|·|E|) worst case of the constraint-relaxation procedure in the
// paper's reference [10].  The coupling structure and sweep order come
// from a shared delay.CSR built once per problem; SolveInto re-solves
// for new budgets with zero heap allocations (the optimizer's W-phase
// runs dozens of times per problem), using an epoch-stamped clamp set
// instead of per-call maps.
package smp

import (
	"errors"
	"fmt"
	"math"

	"minflo/internal/delay"
)

// ErrNoConvergence is returned when the relaxation does not reach a
// fixed point within the sweep budget.
var ErrNoConvergence = errors.New("smp: relaxation did not converge")

// Result of a W-phase solve.
type Result struct {
	X []float64
	// Clamped lists the vertices whose constraint required a size above
	// hi; their budgets are unattainable and their delay exceeds d_i.
	Clamped []int
	// Sweeps is the number of Gauss–Seidel sweeps performed.
	Sweeps int
}

// Options configure the solver. Zero values select defaults.
type Options struct {
	Tol       float64 // convergence tolerance on size change (default 1e-9)
	MaxSweeps int     // sweep budget (default 4·n + 64)
}

// Solver is the persistent W-phase engine for one coefficient set: the
// dependency order is taken from the CSR's build-once condensation and
// all sweep scratch is owned by the Solver, so repeated SolveInto calls
// allocate nothing.
type Solver struct {
	csr   *delay.CSR
	denom []float64 // d_i − a_ii, rewritten per solve

	// Epoch-stamped clamp membership (the PR-1 mcmf scratch trick): a
	// vertex is clamped in the current solve iff inClamp[i] == epoch,
	// so no per-call map or O(n) clear is needed.
	inClamp []uint32
	epoch   uint32

	clamped []int // reused Result.Clamped storage
	res     Result
}

// NewSolver builds a persistent solver over the coupling structure.
func NewSolver(csr *delay.CSR) *Solver {
	n := csr.N()
	return &Solver{
		csr:     csr,
		denom:   make([]float64, n),
		inClamp: make([]uint32, n),
	}
}

// SetParallel does nothing: the sweep is serial.
//
// Deprecated: kept only so cmd/minflobench, its one remaining user,
// still compiles; it goes with that benchmark's replica.
func (s *Solver) SetParallel(any) {}

// sweepBlock relaxes every vertex of block b once (in block order) and
// returns the updated maximum size delta.
func (s *Solver) sweepBlock(b int, x []float64, lo, hi, maxDelta float64) float64 {
	csr := s.csr
	denom := s.denom
	for _, vi := range csr.Block(b) {
		i := int(vi)
		need := csr.LoadAt(i, x) / denom[i]
		nx := need
		if nx < lo {
			nx = lo
		}
		if nx > hi {
			nx = hi
		}
		if nx > x[i] { // least fixed point: sizes only grow from lo
			if nx-x[i] > maxDelta {
				maxDelta = nx - x[i]
			}
			x[i] = nx
		}
	}
	return maxDelta
}

// SolveInto computes the least fixed point for budgets d and writes it
// into x (length N). The returned Result aliases x and solver-owned
// scratch; it is valid until the next SolveInto call. Steady-state
// calls perform no heap allocations.
func (s *Solver) SolveInto(x, d []float64, lo, hi float64, opt Options) (*Result, error) {
	csr := s.csr
	n := csr.N()
	if len(d) != n {
		return nil, fmt.Errorf("smp: budget vector length %d != %d", len(d), n)
	}
	if len(x) != n {
		return nil, fmt.Errorf("smp: solution vector length %d != %d", len(x), n)
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-9
	}
	if opt.MaxSweeps == 0 {
		opt.MaxSweeps = 4*n + 64
	}
	denom := s.denom
	for i := 0; i < n; i++ {
		denom[i] = d[i] - csr.Self[i]
		if denom[i] <= 0 || math.IsNaN(denom[i]) {
			return nil, fmt.Errorf("smp: budget %g at vertex %d below intrinsic delay %g",
				d[i], i, csr.Self[i])
		}
	}

	for i := range x {
		x[i] = lo
	}
	s.epoch++
	s.clamped = s.clamped[:0]
	res := &s.res
	*res = Result{X: x}
	// Sweep order: dependencies first.  x_i needs x_j for couplings
	// i→j, so blocks run in reverse condensation order (sinks of the
	// dependency graph first).
	nb := csr.NumBlocks()
	for sweep := 0; sweep < opt.MaxSweeps; sweep++ {
		res.Sweeps = sweep + 1
		maxDelta := 0.0
		for b := nb - 1; b >= 0; b-- {
			maxDelta = s.sweepBlock(b, x, lo, hi, maxDelta)
		}
		if maxDelta <= opt.Tol {
			// Converged; collect clamped vertices.
			for i := 0; i < n; i++ {
				if need := csr.LoadAt(i, x) / denom[i]; need > hi*(1+1e-12) {
					s.inClamp[i] = s.epoch
					s.clamped = append(s.clamped, i)
				}
			}
			res.Clamped = s.clamped
			return res, nil
		}
	}
	return nil, ErrNoConvergence
}

// Verify checks a result against the constraints: every unclamped
// vertex meets its budget, and minimality holds (each x_i is either at
// the lower bound or tight against its constraint/upper bound).  It
// relies on the clamp epoch of the solve that produced r, so call it
// before the next SolveInto.
func (s *Solver) Verify(d []float64, lo, hi float64, r *Result, eps float64) error {
	csr := s.csr
	for i := 0; i < csr.N(); i++ {
		di := csr.Delay(i, r.X[i], r.X)
		if s.inClamp[i] != s.epoch && di > d[i]*(1+eps)+eps {
			return fmt.Errorf("smp: vertex %d delay %g exceeds budget %g", i, di, d[i])
		}
		xi := r.X[i]
		if xi < lo-eps || xi > hi+eps {
			return fmt.Errorf("smp: vertex %d size %g outside [%g,%g]", i, xi, lo, hi)
		}
		need := csr.LoadAt(i, r.X) / (d[i] - csr.Self[i])
		slackLo := xi - lo
		tight := math.Abs(xi-need) <= eps*(1+need) || math.Abs(xi-hi) <= eps
		if slackLo > eps && !tight {
			return fmt.Errorf("smp: vertex %d not minimal: x=%g, bound=%g", i, xi, need)
		}
	}
	return nil
}

// Solve computes the least fixed point with a throwaway Solver. d are
// per-vertex delay budgets; lo/hi are the global size bounds.  Code on
// the optimizer's hot path should hold a Solver and use SolveInto.
func Solve(coeffs []delay.Coeffs, d []float64, lo, hi float64, opt Options) (*Result, error) {
	s := NewSolver(delay.NewCSR(coeffs))
	r, err := s.SolveInto(make([]float64, len(coeffs)), d, lo, hi, opt)
	if err != nil {
		return nil, err
	}
	out := *r // detach from solver scratch
	return &out, nil
}

// Verify checks the result of a package-level Solve.
func Verify(coeffs []delay.Coeffs, d []float64, lo, hi float64, r *Result, eps float64) error {
	csr := delay.NewCSR(coeffs)
	s := &Solver{csr: csr, inClamp: make([]uint32, csr.N()), epoch: 1}
	for _, i := range r.Clamped {
		s.inClamp[i] = s.epoch
	}
	return s.Verify(d, lo, hi, r, eps)
}
