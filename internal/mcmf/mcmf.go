// Package mcmf implements a minimum-cost network-flow solver for the
// transshipment form used by MINFLOTRANSIT's D-phase:
//
//	minimize   Σ_a cost(a)·f(a)
//	subject to Σ_{a out of v} f(a) − Σ_{a into v} f(a) = supply(v)   ∀v
//	           0 ≤ f(a) ≤ cap(a)                                      ∀a
//
// The algorithm is successive shortest paths with node potentials:
// potentials are initialized with Bellman–Ford (arc costs may be
// negative), after which every augmentation uses Dijkstra on reduced
// costs — Dial's bucket queue, falling back to a heap when distances
// outgrow its ring (dial.go).  At optimality the node potentials are
// the dual variables of the flow LP, which is exactly what the D-phase
// needs (the FSDU displacement r is read off the potentials; see
// internal/dcs).
//
// Full solves route in primal–dual phases (ssp.go): one Dijkstra from
// every source at once, truncated at the nearest deficit's distance,
// updates the potentials, and a blocking flow routes every source that
// reaches a deficit over zero-reduced-cost arcs.  Where phases stop
// paying, races of the classic one-source-per-search loop, priced in
// visited nodes, take over the tail; a race that falls behind the
// phases' rate per path quits.  Incremental repairs (ResolveChanged)
// start in the classic loop and hand the rest of their excess to
// phases once it has visited n nodes at more than n/8 nodes per path
// with at least 8 sources left.
// On every instance the classic-loop oracle covers
// (TestPhasesMatchClassicLoop, full solves and resolves) both end on
// the same potentials, so the duals, and with them the sizing answers
// pinned in the root package's TestAnswerPin, do not move.
//
// The solver is built for repeated solves on a fixed topology — the
// D/W iteration of internal/core solves the same constraint network
// dozens of times with updated costs and supplies:
//
//   - adjacency is a CSR-style arc index (flat csrStart/csrArc arrays)
//     built once per topology, not a slice-of-slices;
//   - the Dijkstra priority queue is a ring of FIFO buckets over one
//     entry pool, with an inline index-based 4-ary heap on int64 keys
//     (no container/heap interface boxing) as its fallback;
//   - per-augmentation dist/prevArc scratch is epoch-stamped instead of
//     O(n)-reset, and the potential update touches only settled nodes;
//   - Reset, SetCost, SetCapacity and SetSupply mutate an instance in
//     place, and a warm re-solve skips Bellman–Ford entirely when the
//     previous potentials still certify non-negative reduced costs
//     (falling back to a potential-seeded Bellman–Ford otherwise).
//
// After the first Solve on a topology, re-solves allocate nothing.
//
// The Solver struct itself is the residual-network state core and the
// shortest-path search scratch.  The algorithms that drive it live
// behind the Engine interface (engine.go) with two registered
// backends — "ssp" (successive shortest paths; the default, which "",
// "auto" and the deprecated "dial" also select, and the degradation
// fallback) and "costscaling" (Goldberg–Tarjan, serial discharge; the
// independent algorithm the conformance suite cross-checks against) —
// selectable per instance with SetEngine.  Beyond full solves, both
// offer ResolveChanged: an incremental re-flow that repairs the
// previous optimal flow after a set of arcs changed cost or capacity,
// instead of rerouting every supply.  Both repair through the same
// drain-and-reroute, resolveSSP in resolve.go (the cost-scaling engine
// on the exact potentials its full solve recovers; see
// costscaling.go).
//
// The solver is self-certifying: Verify re-checks conservation, bounds
// and reduced-cost optimality after every Solve.
package mcmf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// Errors returned by Solve.
var (
	ErrUnbalanced    = errors.New("mcmf: node supplies do not sum to zero")
	ErrInfeasible    = errors.New("mcmf: no feasible flow (insufficient capacity)")
	ErrNegativeCycle = errors.New("mcmf: negative-cost cycle with positive capacity (unbounded dual)")
)

const inf = math.MaxInt64 / 4

// arc is stored in the forward/backward residual pair convention:
// arcs[i] and arcs[i^1] are mutual inverses.
type arc struct {
	cap  int64 // remaining residual capacity
	cost int64
	to   int32
}

// Solver holds a min-cost flow instance.  Build with New, AddArc and
// SetSupply, then call Solve.  For repeated solves on the same
// topology, mutate with Reset/SetCost/SetCapacity/SetSupply and call
// Solve again: arc arrays, the adjacency index and all scratch are
// reused, and prior potentials warm-start the next solve.
type Solver struct {
	n      int
	arcs   []arc
	supply []int64
	pot    []int64 // node potentials (valid after Solve)
	orig   []int64 // original capacity per public arc (index = arcID)
	routed []int64 // supplies routed by the last successful solve
	solved bool
	// repairable reports that the residual arrays hold exactly the flow
	// of the last successful solve (routing the supplies snapshotted in
	// routed) — the precondition of the incremental ResolveChanged
	// repair.  Unlike solved it survives cost/capacity/supply
	// mutations; it is cleared by Reset, by legacy SetCapacity (which
	// discards an arc's flow) and while a solve is mutating residuals.
	repairable bool
	eng        Engine // active backend; nil means the "ssp" default

	// CSR-style adjacency: arc indices of node u are
	// csrArc[csrStart[u]:csrStart[u+1]].  Rebuilt lazily when arcs or
	// nodes were added since the last Solve.
	csrStart  []int32
	csrArc    []int32
	topoDirty bool
	flowDirty bool // residuals carry a previous solve's flow

	// ss is the solver's epoch-stamped Dijkstra scratch with Dial's
	// bucket queue and the heap fallback (search.go, dial.go).
	ss      searchScratch
	excess  []int64
	sources []int32
	path    []int32 // a phase's DFS arc stack (ssp.go)
	net     []int64 // Verify scratch (net outflow per node)

	// Measured augmentation-cost averages feeding the ResolveChanged
	// work-estimate gate (resolve.go): exponential moving averages of
	// visited nodes per augmentation, kept separately for full solves
	// and incremental repairs.  Zero until the first run of each kind
	// seeds them (the gate falls back to a static estimate until then).
	ewmaFullVisits    float64
	ewmaResolveVisits float64

	// Abort sources and engine-degradation state (abort.go).  armed
	// caches whether any abort source is installed so the per-operation
	// pollAbort stays a single branch on the warm path; pollTick paces
	// the deadline's clock sampling.
	ctx        context.Context
	deadline   time.Time
	pollTick   uint32
	workBudget int64
	workDone   int64
	pollHook   func() error
	armed      bool
	fallbackOn bool
	att        attemptState

	engineFailures int
	lastFailure    error
}

// New returns a solver over n nodes with no arcs and zero supplies.
func New(n int) *Solver {
	return &Solver{
		n:         n,
		supply:    make([]int64, n),
		topoDirty: true,
	}
}

// N returns the number of nodes.
func (s *Solver) N() int { return s.n }

// NumArcs returns the number of public arcs added with AddArc.
func (s *Solver) NumArcs() int { return len(s.orig) }

// AddNode appends a node with zero supply and returns its index.
func (s *Solver) AddNode() int {
	s.supply = append(s.supply, 0)
	s.n++
	s.topoDirty = true
	s.solved = false
	return s.n - 1
}

// SetSupply sets the net supply of node v. Positive values are sources
// (flow leaves v), negative values are demands.
func (s *Solver) SetSupply(v int, b int64) {
	s.supply[v] = b
	s.solved = false
}

// AddSupply adds to the net supply of node v.
func (s *Solver) AddSupply(v int, b int64) {
	s.supply[v] += b
	s.solved = false
}

// Supply returns the configured supply of node v.
func (s *Solver) Supply(v int) int64 { return s.supply[v] }

// AddArc adds a directed arc u->v with the given capacity and per-unit
// cost and returns its arc ID.  Capacities must be non-negative; costs
// may be negative.
func (s *Solver) AddArc(u, v int, capacity, cost int64) int {
	if u < 0 || u >= s.n || v < 0 || v >= s.n {
		panic(fmt.Sprintf("mcmf: AddArc(%d,%d) out of range [0,%d)", u, v, s.n))
	}
	if capacity < 0 {
		panic("mcmf: negative capacity")
	}
	id := len(s.orig)
	s.orig = append(s.orig, capacity)
	s.arcs = append(s.arcs,
		arc{to: int32(v), cap: capacity, cost: cost},
		arc{to: int32(u), cap: 0, cost: -cost})
	s.topoDirty = true
	s.solved = false
	return id
}

// SetCost changes the per-unit cost of an existing arc in place.  The
// topology (and hence the adjacency index) is untouched, so a
// subsequent Solve reuses everything and warm-starts from the current
// potentials.
func (s *Solver) SetCost(arcID int, cost int64) {
	s.arcs[2*arcID].cost = cost
	s.arcs[2*arcID+1].cost = -cost
	s.solved = false
}

// Cost returns the per-unit cost of the arc with the given ID.
func (s *Solver) Cost(arcID int) int64 { return s.arcs[2*arcID].cost }

// SetCapacity changes the capacity of an existing arc in place and
// clears any flow routed on it (the residual state is restored to the
// unsolved configuration for that arc).
func (s *Solver) SetCapacity(arcID int, capacity int64) {
	if capacity < 0 {
		panic("mcmf: negative capacity")
	}
	s.orig[arcID] = capacity
	s.arcs[2*arcID].cap = capacity
	s.arcs[2*arcID+1].cap = 0
	s.solved = false
	s.repairable = false // the arc's routed flow was just discarded
}

// UpdateCapacity changes the configured capacity of an existing arc
// without touching its residual state — the mutation path for the
// incremental ResolveChanged re-flow, which must receive the arc in
// its changed set and reconciles the residuals itself (drain and
// restore).  A full Solve reconciles too (it resets every residual),
// so staged capacities are never lost; the one invalid sequence is
// mutating capacities with UpdateCapacity and then reading Flow
// without an intervening solve.
func (s *Solver) UpdateCapacity(arcID int, capacity int64) {
	if capacity < 0 {
		panic("mcmf: negative capacity")
	}
	s.orig[arcID] = capacity
	// Residuals no longer reflect the configuration: a full Solve must
	// reset them (ResolveChanged reconciles the changed arcs itself).
	s.flowDirty = true
	s.solved = false
}

// Capacity returns the configured capacity of the arc with the given ID.
func (s *Solver) Capacity(arcID int) int64 { return s.orig[arcID] }

// Reset restores every arc to its unsolved residual state (full forward
// capacity, no flow) so the instance can be solved again.  The
// topology, adjacency index, scratch arrays and node potentials are all
// kept: combined with SetCost/SetCapacity/SetSupply this is the
// warm-start path for repeated solves on one network.
//
// Calling Reset is optional: Solve clears a previous solve's flow by
// itself.  It exists for callers that want the restored residual state
// earlier (e.g. to inspect capacities between solves).
//
// Reset also zeroes the engine's per-problem work counter
// (Stats.Visited), so back-to-back problems on
// a reused solver report per-problem work instead of cumulative
// numbers; the lifetime counters (Solves, Resolves, fallbacks) are
// untouched.
func (s *Solver) Reset() {
	s.resetResiduals()
	s.flowDirty = false
	s.solved = false
	s.repairable = false
	if r, ok := s.eng.(workCounterResetter); ok {
		r.ResetWorkCounters()
	}
}

// resetResiduals restores residual capacities to the original
// configuration (also used by SolveCostScaling, which starts from the
// unsolved state regardless of prior solves).
func (s *Solver) resetResiduals() {
	for id, c := range s.orig {
		s.arcs[2*id].cap = c
		s.arcs[2*id+1].cap = 0
	}
}

// Flow returns the flow routed on the arc with the given ID.
// Valid after Solve.
func (s *Solver) Flow(arcID int) int64 {
	return s.arcs[2*arcID+1].cap // reverse residual capacity == flow
}

// Potential returns the optimal dual potential of node v after Solve.
// Potentials are normalized so that reduced costs
// cost(a) + pot(from) − pot(to) are ≥ 0 on all arcs with residual
// capacity.  The LP dual variable of the difference-constraint system is
// −Potential(v) (see internal/dcs).
func (s *Solver) Potential(v int) int64 { return s.pot[v] }

// TotalCost returns Σ cost·flow as a float64 (the product can exceed
// int64 on heavily scaled instances).
func (s *Solver) TotalCost() float64 {
	var t float64
	for i := 0; i < len(s.arcs); i += 2 {
		f := s.arcs[i+1].cap
		t += float64(s.arcs[i].cost) * float64(f)
	}
	return t
}

// prepare (re)builds the CSR adjacency index after topology changes and
// sizes the scratch arrays.  Prior potentials are preserved so warm
// starts survive arc additions; new nodes start at potential zero.
func (s *Solver) prepare() {
	if !s.topoDirty && len(s.csrStart) == s.n+1 {
		return
	}
	n := s.n
	if cap(s.csrStart) >= n+1 {
		s.csrStart = s.csrStart[:n+1]
		for i := range s.csrStart {
			s.csrStart[i] = 0
		}
	} else {
		s.csrStart = make([]int32, n+1)
	}
	// Origin of arcs[i] is the destination of its pair arcs[i^1].
	for i := range s.arcs {
		s.csrStart[s.arcs[i^1].to+1]++
	}
	for u := 0; u < n; u++ {
		s.csrStart[u+1] += s.csrStart[u]
	}
	if cap(s.csrArc) >= len(s.arcs) {
		s.csrArc = s.csrArc[:len(s.arcs)]
	} else {
		s.csrArc = make([]int32, len(s.arcs))
	}
	cursor := make([]int32, n)
	copy(cursor, s.csrStart[:n])
	for i := range s.arcs {
		u := s.arcs[i^1].to
		s.csrArc[cursor[u]] = int32(i)
		cursor[u]++
	}

	if len(s.pot) < n {
		pot := make([]int64, n)
		copy(pot, s.pot)
		s.pot = pot
	}
	s.ss.ensure(n)
	if len(s.excess) < n {
		s.excess = make([]int64, n)
	}
	s.topoDirty = false
}

// arcsOf returns the CSR slice of arc indices leaving u.
func (s *Solver) arcsOf(u int) []int32 {
	return s.csrArc[s.csrStart[u]:s.csrStart[u+1]]
}

// potentialsValid reports whether the current potentials certify
// non-negative reduced costs on every residual arc — the warm-start
// test that lets a re-solve on updated costs skip Bellman–Ford.
func (s *Solver) potentialsValid() bool {
	for u := 0; u < s.n; u++ {
		pu := s.pot[u]
		for _, ai := range s.arcsOf(u) {
			a := &s.arcs[ai]
			if a.cap <= 0 {
				continue
			}
			if a.cost+pu-s.pot[a.to] < 0 {
				return false
			}
		}
	}
	return true
}

// bellmanFord establishes valid potentials: non-negative reduced costs
// on every residual arc.  It relaxes to a fixpoint starting from the
// current potential values — zeros on a fresh instance (the classic
// virtual-super-source initialization), the previous solve's duals on a
// warm re-solve, where near-valid potentials converge in a round or
// two.  Any relaxation fixpoint is a valid potential function; a round
// that still relaxes after n iterations proves a negative cycle
// reachable through positive-residual arcs.
func (s *Solver) bellmanFord() error {
	dist := s.pot
	for round := 0; round < s.n; round++ {
		if err := s.pollAbort(); err != nil {
			return err
		}
		changed := false
		for u := 0; u < s.n; u++ {
			du := dist[u]
			for _, ai := range s.arcsOf(u) {
				a := &s.arcs[ai]
				if a.cap <= 0 {
					continue
				}
				if nd := du + a.cost; nd < dist[a.to] {
					dist[a.to] = nd
					changed = true
				}
			}
		}
		if !changed {
			return nil
		}
	}
	return ErrNegativeCycle
}

// Solve computes a minimum-cost feasible flow with the active engine
// (SetEngine; "ssp" by default). It returns the total cost (as
// float64; see TotalCost) or an error if the instance is unbalanced,
// infeasible, or contains a negative-cost cycle of positive capacity.
//
// Solve always prices the instance as configured: a previous solve's
// flow is cleared automatically (see Reset), so mutate-and-solve-again
// needs no explicit reset.  After the first solve on a topology the
// inner loop is allocation-free.
//
// With an abort source armed (SetContext, SetDeadline, SetWorkBudget,
// SetPollHook) the solve can additionally return ErrCanceled or
// ErrBudgetExhausted; the pre-solve state is restored, so a subsequent
// solve is bit-identical to one on a never-aborted twin.  Engine
// panics surface as ErrEngineFailed (or are rescued with
// SetEngineFallback).  See abort.go.
func (s *Solver) Solve() (float64, error) {
	return s.runEngine(nil, false)
}

// ResolveChanged incrementally repairs the previous optimal flow with
// the active engine after the listed arcs changed cost and/or
// capacity: the changed arcs' flow is drained back to their endpoints
// and only the resulting imbalance (plus any supply deltas, which are
// detected automatically) is rerouted on the residual graph, instead
// of rerouting every supply from scratch.  changed must include every
// arc mutated with SetCost/UpdateCapacity since the last successful
// solve; listing unchanged arcs is allowed (they are drained and
// rerouted too, just wastefully).  Without a reusable previous flow —
// first solve, topology change, or an engine that cannot re-flow —
// it falls back to a full Solve.
//
// ResolveChanged honors the same abort sources and degradation
// contract as Solve (see abort.go): an aborted repair restores the
// pre-call state, including repairability of the previous flow.
func (s *Solver) ResolveChanged(changed []int32) (float64, error) {
	return s.runEngine(changed, true)
}

// beginSolve is the shared full-solve preamble: balance check, index
// and scratch preparation, residual reset after a prior solve, and
// potential validation (warm-start scan with Bellman–Ford fallback).
func (s *Solver) beginSolve(st *Stats) error {
	var sum int64
	for _, b := range s.supply {
		sum += b
	}
	if sum != 0 {
		return ErrUnbalanced
	}
	s.prepare()
	if s.flowDirty {
		s.resetResiduals()
		s.flowDirty = false
	}
	if !s.potentialsValid() {
		st.BellmanFords++
		if err := s.bellmanFord(); err != nil {
			return err
		}
	}
	return nil
}

// markSolved records a successful solve: the optimality flag and the
// routed-supply snapshot ResolveChanged diffs against.
func (s *Solver) markSolved() {
	s.solved = true
	s.repairable = true
	if cap(s.routed) < s.n {
		s.routed = make([]int64, s.n)
	}
	s.routed = s.routed[:s.n]
	copy(s.routed, s.supply)
}

// Verify re-derives the optimality conditions from scratch:
//  1. capacity bounds: 0 ≤ f ≤ cap on every arc,
//  2. conservation: net outflow equals supply at every node,
//  3. reduced-cost optimality: cost + pot(u) − pot(v) ≥ 0 for every
//     residual arc.
//
// A nil return certifies the flow is optimal (LP duality).
func (s *Solver) Verify() error {
	if !s.solved {
		return errors.New("mcmf: Verify before Solve")
	}
	if cap(s.net) < s.n {
		s.net = make([]int64, s.n)
	}
	net := s.net[:s.n]
	for i := range net {
		net[i] = 0
	}
	for id := range s.orig {
		f := s.Flow(id)
		if f < 0 || f > s.orig[id] {
			return fmt.Errorf("mcmf: arc %d flow %d outside [0,%d]", id, f, s.orig[id])
		}
		fwd := s.arcs[2*id]
		u := s.arcs[2*id+1].to
		net[u] += f
		net[fwd.to] -= f
	}
	for v := 0; v < s.n; v++ {
		if net[v] != s.supply[v] {
			return fmt.Errorf("mcmf: node %d net outflow %d != supply %d", v, net[v], s.supply[v])
		}
	}
	for u := 0; u < s.n; u++ {
		for _, ai := range s.arcsOf(u) {
			a := s.arcs[ai]
			if a.cap <= 0 {
				continue
			}
			if rc := a.cost + s.pot[u] - s.pot[a.to]; rc < 0 {
				return fmt.Errorf("mcmf: residual arc %d->%d has negative reduced cost %d", u, a.to, rc)
			}
		}
	}
	return nil
}

// heap4 is an inline 4-ary min-heap on int64 keys with int32 payloads
// — parallel arrays, no interface boxing, no container/heap.  A 4-ary
// layout halves the tree depth of a binary heap, trading slightly more
// sibling comparisons (all in one cache line) for fewer levels touched
// per sift, which wins on the pop-heavy Dijkstra workload.  Stale
// entries are handled by the caller via lazy deletion.
type heap4 struct {
	key  []int64
	node []int32
}

func (h *heap4) reset() {
	h.key = h.key[:0]
	h.node = h.node[:0]
}

func (h *heap4) empty() bool { return len(h.key) == 0 }

func (h *heap4) push(k int64, v int32) {
	h.key = append(h.key, k)
	h.node = append(h.node, v)
	i := len(h.key) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h.key[p] <= k {
			break
		}
		h.key[i], h.node[i] = h.key[p], h.node[p]
		i = p
	}
	h.key[i], h.node[i] = k, v
}

func (h *heap4) pop() (int64, int32) {
	k0, v0 := h.key[0], h.node[0]
	last := len(h.key) - 1
	k, v := h.key[last], h.node[last]
	h.key = h.key[:last]
	h.node = h.node[:last]
	if last > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= last {
				break
			}
			m := c
			end := c + 4
			if end > last {
				end = last
			}
			for j := c + 1; j < end; j++ {
				if h.key[j] < h.key[m] {
					m = j
				}
			}
			if h.key[m] >= k {
				break
			}
			h.key[i], h.node[i] = h.key[m], h.node[m]
			i = m
		}
		h.key[i], h.node[i] = k, v
	}
	return k0, v0
}
