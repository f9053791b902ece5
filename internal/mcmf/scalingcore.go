// ε-scaling core of the cost-scaling oracle.
//
// Goldberg–Tarjan cost scaling maintains an ε-optimal pseudoflow:
// costs are scaled by α = n+1 so that 1-optimality in scaled units
// implies exact optimality for integer costs; each refine phase halves
// ε, saturates every negative-reduced-cost arc, and discharges active
// (positive-excess) vertices with push/relabel operations until no
// excess remains.
//
// This file holds the ε-scaling machinery — the scaled-cost setup with
// its price-range guard, the admissible-arc saturation sweep, the
// relabel (price refinement) computation, the ε phase schedule, and
// the exact-potential recovery — while the discharge strategy (serial
// LIFO discharge, the classic sequential loop) lives in costscaling.go.
//
// Incremental resolves do not refine: the solver-level
// drain-and-reprice of resolvePrep leaves a residual graph whose
// exact potentials (the prior solve's duals) still certify
// non-negative reduced costs, and the local imbalance is rerouted
// with shortest-path augmentations on those warm potentials
// (resolveSSP) — not with a refinement pass.  The refinement-pass
// design was built and measured first: a single ε=1 pass from the
// scaled prior prices is exact but pseudo-polynomial in the cost
// magnitude (push/relabel digs price valleys in ε-sized steps across
// terrain integerized at 1e6 — measured 9.5 s per D-phase resolve
// round against 0.1 s for a warm full solve on grid40x25), and a full
// ε descent from maxC regains polynomiality but destroys the warm
// prices' locality (measured ~85% of a fresh solve's discharge work
// per round).  Shortest-path reroute on the kept prices does the same
// repair in microseconds and maintains exact potentials as it goes;
// see EXPERIMENTS.md "Cost-scaling resolve".
package mcmf

import "errors"

// ErrPriceRange is returned by the cost-scaling oracle when the
// scaled costs (α·cost with α = n+1) would not fit int64, or when the
// price development during refinement reaches the runtime floor
// (priceFloor): rather than silently wrapping int64 arithmetic, the
// solve refuses.  Successive shortest paths has no such limit.
var ErrPriceRange = errors.New("mcmf: cost magnitude exceeds the cost-scaling price range")

// priceFloor is the runtime price guard: prices start at zero and
// only decrease, and every reduced-cost test adds two prices to a
// scaled cost, so holding prices above −inf/2 (with scaled costs
// bounded by inf in prepare) keeps all arithmetic comfortably inside
// int64.  The worst-case a-priori bound (~3·n·ε_start) would reject
// most large warm instances that never come near the limit, so the
// guard is enforced where prices actually move — at relabels.
const priceFloor = -(inf / 2)

// scalingState is the reusable scratch of the cost-scaling driver:
// scaled costs and prices plus the active-set bookkeeping.  A Solver
// switched to the oracle owns one, so all buffers survive between
// solves on a topology.
type scalingState struct {
	alpha int64   // cost scale α = n+1
	eps   int64   // current phase ε (scaled units)
	maxC  int64   // max |scaled cost|
	cost  []int64 // scaled arc costs, index-parallel to Solver.arcs
	pot   []int64 // scaled node prices
	cur   []int32 // current-arc cursors
	// active/inActive implement the discharge's LIFO stack.
	active   []int32
	inActive []bool
	maxOps   int // per-refine discharge guard
}

// prepare sizes the scratch for the solver's current topology and
// recomputes the scaled costs (arc costs may change between solves).
// It fails with ErrPriceRange when the price development could
// overflow int64.
func (sc *scalingState) prepare(s *Solver) error {
	n := s.n
	sc.alpha = int64(n + 1)
	var maxAbs int64
	for i := range s.arcs {
		c := s.arcs[i].cost
		if c < 0 {
			c = -c
		}
		if c > maxAbs {
			maxAbs = c
		}
	}
	// Scaled costs must fit the |cost| ≤ inf budget the price-floor
	// arithmetic assumes (see priceFloor); the floor itself is checked
	// at relabel time, where prices actually develop.
	if maxAbs > int64(inf)/sc.alpha {
		return ErrPriceRange
	}
	if cap(sc.cost) < len(s.arcs) {
		sc.cost = make([]int64, len(s.arcs))
	}
	sc.cost = sc.cost[:len(s.arcs)]
	sc.maxC = 0
	for i := range s.arcs {
		c := s.arcs[i].cost * sc.alpha
		sc.cost[i] = c
		if c < 0 {
			c = -c
		}
		if c > sc.maxC {
			sc.maxC = c
		}
	}
	if cap(sc.pot) < n {
		sc.pot = make([]int64, n)
		sc.cur = make([]int32, n)
		sc.inActive = make([]bool, n)
	}
	sc.pot = sc.pot[:n]
	sc.cur = sc.cur[:n]
	sc.inActive = sc.inActive[:n]
	sc.maxOps = 40 * n * n * (bits64(sc.maxC) + 2) // generous safety bound
	return nil
}

func bits64(x int64) int {
	b := 0
	for x > 0 {
		x >>= 1
		b++
	}
	return b
}

// saturate pushes full residual capacity along every arc with negative
// scaled reduced cost — the admissibility sweep opening each refine
// phase.  Deterministic: vertices ascending, arcs in CSR order.
func (sc *scalingState) saturate(s *Solver, excess []int64) {
	for v := 0; v < s.n; v++ {
		pv := sc.pot[v]
		for _, ai := range s.arcsOf(v) {
			a := &s.arcs[ai]
			if a.cap <= 0 {
				continue
			}
			if sc.cost[ai]+pv-sc.pot[a.to] < 0 {
				excess[v] -= a.cap
				excess[a.to] += a.cap
				s.arcs[ai^1].cap += a.cap
				a.cap = 0
			}
		}
	}
}

// relabelValue computes the price-refinement target of vertex v: the
// highest price at which some residual arc out of v becomes admissible,
// max over residual arcs of pot(to) − cost − ε.  ok is false when v has
// no residual arc at all (its excess can never drain).
func (sc *scalingState) relabelValue(s *Solver, v int32) (val int64, ok bool) {
	for _, ai := range s.arcsOf(int(v)) {
		a := &s.arcs[ai]
		if a.cap <= 0 {
			continue
		}
		if nv := sc.pot[a.to] - sc.cost[ai] - sc.eps; !ok || nv > val {
			val, ok = nv, true
		}
	}
	return val, ok
}

// phaseSchedule runs refine over the standard ε halving schedule from
// maxC down to 1.  refine discharges all active vertices at sc.eps.
func (sc *scalingState) phaseSchedule(refine func() error) error {
	eps := sc.maxC
	if eps == 0 {
		eps = 1
	}
	for {
		sc.eps = eps
		if err := refine(); err != nil {
			return err
		}
		if eps == 1 {
			return nil
		}
		eps /= 2
		if eps < 1 {
			eps = 1
		}
	}
}

// solveScalingFull is the full cost-scaling solve: balance check,
// scratch preparation, residual reset, zeroed prices, the ε phase
// schedule over refineSerial, and the finish (feasibility check, exact
// potentials, solved-state bookkeeping).
//
// Counter units: refineSerial bills one Visited per discharge
// operation, and this skeleton bills one Augmentation per supply
// source routed — so the solver's EWMA gate (ewmaFullVisits =
// visited/augmentations) prices a scaling full solve per source, the
// same currency ssp uses, and the shared resolve gate can
// weigh a Dijkstra repair against a scaling re-solve honestly.
func solveScalingFull(s *Solver, sc *scalingState, st *Stats) (float64, error) {
	var sum int64
	srcs := int64(0)
	for _, b := range s.supply {
		sum += b
		if b > 0 {
			srcs++
		}
	}
	if sum != 0 {
		return 0, ErrUnbalanced
	}
	s.prepare()
	if err := sc.prepare(s); err != nil {
		return 0, err
	}
	// Start from the unsolved residual configuration; refine phases
	// mutate it from here on.
	s.resetResiduals()
	s.flowDirty = true
	s.repairable = false
	for i := range sc.pot {
		sc.pot[i] = 0
	}
	if len(s.excess) < s.n {
		s.excess = make([]int64, s.n)
	}
	excess := s.excess[:s.n]
	copy(excess, s.supply)
	if err := sc.phaseSchedule(func() error { return refineSerial(s, sc, excess, st) }); err != nil {
		return 0, err
	}
	st.Augmentations += srcs
	return finishScaling(s, st, excess)
}

// finishScaling closes a scaling run: feasibility (all excesses
// cleared), exact potentials in cost units for the Verify certificate
// (zero-seeded Bellman–Ford on the optimal residual graph, which has
// no negative cycles), and the solved-state bookkeeping.  The exact
// potentials double as warm duals: they are what lets ResolveChanged
// repair the flow with shortest-path augmentations later.
func finishScaling(s *Solver, st *Stats, excess []int64) (float64, error) {
	for v := 0; v < s.n; v++ {
		if excess[v] != 0 {
			return 0, ErrInfeasible
		}
	}
	for i := 0; i < s.n; i++ {
		s.pot[i] = 0
	}
	st.BellmanFords++
	if err := s.bellmanFord(); err != nil {
		return 0, err
	}
	s.markSolved()
	return s.TotalCost(), nil
}
