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
// costs on a monotone radix heap (radix.go).  Pops come in
// non-decreasing distance and ties in push order, and each search stops
// at the first deficit it pops, so that order is part of the answer:
// it picks among equally short paths, and with them among optimal
// potentials.  At optimality the node potentials are
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
//   - the residual arcs are stored grouped by tail node, CSR style
//     (node u's arcs are arcs[csrStart[u]:csrStart[u+1]]), laid out in
//     place once per topology, so a search scans each node's arcs
//     contiguously; public arc IDs reach their arcs through an
//     ID→position table;
//   - the Dijkstra priority queue is a radix heap over one entry pool;
//   - each node's potential and its per-search state (distance, tree
//     arc, epoch stamp) share one 24-byte record, so a relaxation
//     touches one place per head node; the search state is
//     epoch-stamped instead of O(n)-reset, and the potential update
//     touches only settled nodes;
//   - Reset, SetCost, UpdateCapacity and SetSupply mutate an instance in
//     place, and a warm re-solve skips Bellman–Ford entirely when the
//     previous potentials still certify non-negative reduced costs
//     (falling back to a potential-seeded Bellman–Ford otherwise).
//
// After the first Solve on a topology, re-solves allocate nothing.
//
// The Solver struct itself is the residual-network state core and the
// shortest-path search scratch; Solve and ResolveChanged always run
// successive shortest paths on it (engine.go).  Beyond full solves,
// ResolveChanged is an incremental re-flow that repairs the previous
// optimal flow after a set of arcs changed cost or capacity, instead
// of rerouting every supply (drain-and-reroute, resolve.go).
//
// The solver is self-certifying: Verify re-checks conservation, bounds
// and reduced-cost optimality after every Solve.
package mcmf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// Errors returned by Solve.
var (
	ErrUnbalanced    = errors.New("mcmf: node supplies do not sum to zero")
	ErrInfeasible    = errors.New("mcmf: no feasible flow (insufficient capacity)")
	ErrNegativeCycle = errors.New("mcmf: negative-cost cycle with positive capacity (unbounded dual)")
)

const inf = math.MaxInt64 / 4

// arc is one residual arc.  Every public arc is a forward/backward
// residual pair: arcs[i] and arcs[arcs[i].rev] are mutual inverses, so
// the tail of arcs[i] is arcs[arcs[i].rev].to.
type arc struct {
	cap  int64 // remaining residual capacity
	cost int64
	to   int32
	rev  int32 // position of the paired residual arc
}

// Solver holds a min-cost flow instance.  Build with New, AddArc and
// SetSupply, then call Solve.  For repeated solves on the same
// topology, mutate with Reset/SetCost/UpdateCapacity/SetSupply and call
// Solve again: arc arrays, the adjacency index and all scratch are
// reused, and prior potentials warm-start the next solve.
type Solver struct {
	n int
	// arcs holds the residual arcs.  Once prepared they are grouped by
	// tail: node u's arcs are arcs[csrStart[u]:csrStart[u+1]], in the
	// order the pairs were added (forward before backward for a
	// self-loop).  AddArc appends a pair at the end, and the next solve
	// lays the array out again in place (prepare).
	arcs []arc
	// fwd maps a public arc ID to the position of its forward arc in
	// arcs (pair); the backward arc is arcs[fwd[id]].rev.
	fwd    []int32
	supply []int64
	// node holds one record per node: its potential (valid after
	// Solve) and its state in the current search (search.go).
	node   []nodeState
	orig   []int64 // original capacity per public arc (index = arcID)
	routed []int64 // supplies routed by the last successful solve
	solved bool
	// repairable reports that the residual arrays hold exactly the flow
	// of the last successful solve (routing the supplies snapshotted in
	// routed) — the precondition of the incremental ResolveChanged
	// repair.  Unlike solved it survives cost/capacity/supply
	// mutations; it is cleared by Reset, by a topology change
	// (topoChanged) and while a solve is mutating residuals.
	repairable bool
	st         Stats // cumulative work counters (EngineStats)
	// scaling, when set, makes full solves run the cost-scaling
	// oracle instead of ssp (costscaling.go; tests only).
	scaling *scalingState

	// csrStart[u] is where node u's arcs begin in arcs.  Rebuilt, with
	// the arc layout, when arcs or nodes were added since the last
	// solve.
	csrStart  []int32
	topoDirty bool
	flowDirty bool // residuals carry a previous solve's flow

	// ss is the solver's epoch-stamped Dijkstra scratch with the radix
	// heap (search.go, radix.go).
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

	// Abort sources and the attempt snapshot (abort.go).  armed caches
	// whether any abort source is installed so the per-operation
	// pollAbort stays a single branch on the warm path; pollTick paces
	// the deadline's clock sampling; hookOps counts the current
	// attempt's polls for the context's poll hook.
	ctx        context.Context
	deadline   time.Time
	pollTick   uint32
	workBudget int64
	workDone   int64
	pollHook   func(op int64) error
	hookOps    int64
	armed      bool
	att        attemptState
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
	s.topoChanged()
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

// Reserve makes room for arcs more AddArc calls, so a caller that
// knows the network's size builds it without reallocating the per-arc
// arrays (and without their append slack).
func (s *Solver) Reserve(arcs int) {
	s.arcs = slices.Grow(s.arcs, 2*arcs)
	s.orig = slices.Grow(s.orig, arcs)
	s.fwd = slices.Grow(s.fwd, arcs)
}

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
	i := int32(len(s.arcs))
	s.orig = append(s.orig, capacity)
	s.fwd = append(s.fwd, i)
	s.arcs = append(s.arcs,
		arc{to: int32(v), cap: capacity, cost: cost, rev: i + 1},
		arc{to: int32(u), cap: 0, cost: -cost, rev: i})
	s.topoChanged()
	return id
}

// topoChanged records a topology change: the next solve lays the arcs
// out again, and the previous flow can no longer be repaired (a new
// arc may price negative against it).
func (s *Solver) topoChanged() {
	s.topoDirty = true
	s.solved = false
	s.repairable = false
}

// pair returns the forward and backward residual arcs of public arc id.
func (s *Solver) pair(id int) (fwd, rev *arc) {
	fwd = &s.arcs[s.fwd[id]]
	return fwd, &s.arcs[fwd.rev]
}

// SetCost changes the per-unit cost of an existing arc in place.  The
// topology (and hence the adjacency index) is untouched, so a
// subsequent Solve reuses everything and warm-starts from the current
// potentials.
func (s *Solver) SetCost(arcID int, cost int64) {
	fwd, rev := s.pair(arcID)
	fwd.cost = cost
	rev.cost = -cost
	s.solved = false
}

// Cost returns the per-unit cost of the arc with the given ID.
func (s *Solver) Cost(arcID int) int64 { return s.arcs[s.fwd[arcID]].cost }

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
// kept: combined with SetCost/UpdateCapacity/SetSupply this is the
// warm-start path for repeated solves on one network.
//
// Calling Reset is optional: Solve clears a previous solve's flow by
// itself.  It exists for callers that want the restored residual state
// earlier (e.g. to inspect capacities between solves).
//
// Reset also zeroes the per-problem work counter (Stats.Visited), so
// back-to-back problems on a reused solver report per-problem work
// instead of cumulative numbers; the lifetime counters (Solves,
// Resolves, fallbacks) are untouched.
func (s *Solver) Reset() {
	s.resetResiduals()
	s.flowDirty = false
	s.solved = false
	s.repairable = false
	s.st.Visited = 0
}

// resetResiduals restores residual capacities to the original
// configuration (also used by the cost-scaling oracle, which starts
// from the unsolved state regardless of prior solves).
func (s *Solver) resetResiduals() {
	for id, c := range s.orig {
		fwd, rev := s.pair(id)
		fwd.cap = c
		rev.cap = 0
	}
}

// Flow returns the flow routed on the arc with the given ID.
// Valid after Solve.
func (s *Solver) Flow(arcID int) int64 {
	_, rev := s.pair(arcID)
	return rev.cap // reverse residual capacity == flow
}

// Potential returns the optimal dual potential of node v after Solve.
// Potentials are normalized so that reduced costs
// cost(a) + pot(from) − pot(to) are ≥ 0 on all arcs with residual
// capacity.  The LP dual variable of the difference-constraint system is
// −Potential(v) (see internal/dcs).
func (s *Solver) Potential(v int) int64 { return s.node[v].pot }

// TotalCost returns Σ cost·flow as a float64 (the product can exceed
// int64 on heavily scaled instances).
func (s *Solver) TotalCost() float64 {
	var t float64
	for id := range s.orig {
		fwd, rev := s.pair(id)
		t += float64(fwd.cost) * float64(rev.cap)
	}
	return t
}

// prepare lays the arcs out by tail after topology changes and sizes
// the scratch arrays.  Prior potentials are preserved so warm starts
// survive arc additions; new nodes start at potential zero.
func (s *Solver) prepare() {
	if !s.topoDirty && len(s.csrStart) == s.n+1 {
		return
	}
	s.layoutArcs()
	n := s.n
	if len(s.node) < n {
		node := make([]nodeState, n)
		for v := range s.node {
			node[v].pot = s.node[v].pot
		}
		s.node = node
	}
	if len(s.excess) < n {
		s.excess = make([]int64, n)
	}
	s.topoDirty = false
}

// layoutArcs groups the residual arcs by tail, in place.  A stable
// counting sort by tail computes each arc's new position, and cycle
// following over that position table moves every arc there, so no
// second arc array is ever live.  Each node's arcs keep their relative
// order — the order of their residual slots (2·id forward, 2·id+1
// backward), since the part laid out before is already in that order
// and AddArc appends in it — which is the order searches scan them in
// and so decides their tie-breaks.
//
// The position table borrows the attempt snapshot's buffer, which
// holds one value per residual arc and is only read after a snapshot
// (beginAttempt) has refilled it.  A Solver that runs armed (a
// cancelable context, a deadline or a work budget) keeps that buffer
// for its snapshots, so there a re-layout allocates no arc-sized
// scratch of its own; an unarmed one keeps it for the next re-layout.
func (s *Solver) layoutArcs() {
	n := s.n
	if cap(s.csrStart) >= n+1 {
		s.csrStart = s.csrStart[:n+1]
		clear(s.csrStart)
	} else {
		s.csrStart = make([]int32, n+1)
	}
	start := s.csrStart
	for i := range s.arcs {
		start[s.arcs[s.arcs[i].rev].to+1]++
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	// dest[i] is the new position of arcs[i].  start[u] serves as u's
	// cursor and so ends at u+1's start; the shift undoes that.
	if cap(s.att.caps) < len(s.arcs) {
		s.att.caps = make([]int64, len(s.arcs))
	}
	dest := s.att.caps[:len(s.arcs)]
	for i := range s.arcs {
		u := s.arcs[s.arcs[i].rev].to
		dest[i] = int64(start[u])
		start[u]++
	}
	copy(start[1:], start[:n])
	start[0] = 0

	for i := range s.arcs {
		s.arcs[i].rev = int32(dest[s.arcs[i].rev])
	}
	for id, f := range s.fwd {
		s.fwd[id] = int32(dest[f])
	}
	for i := range dest {
		for j := dest[i]; j != int64(i); j = dest[i] {
			s.arcs[i], s.arcs[j] = s.arcs[j], s.arcs[i]
			dest[i], dest[j] = dest[j], j
		}
	}
}

// arcsOf returns the residual arcs leaving u; the arc at index k of
// the slice is arcs[csrStart[u]+k].
func (s *Solver) arcsOf(u int) []arc {
	return s.arcs[s.csrStart[u]:s.csrStart[u+1]]
}

// potentialsValid reports whether the current potentials certify
// non-negative reduced costs on every residual arc — the warm-start
// test that lets a re-solve on updated costs skip Bellman–Ford.
func (s *Solver) potentialsValid() bool {
	for u := 0; u < s.n; u++ {
		pu := s.node[u].pot
		out := s.arcsOf(u)
		for k := range out {
			a := &out[k]
			if a.cap <= 0 {
				continue
			}
			if a.cost+pu-s.node[a.to].pot < 0 {
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
	node := s.node
	for round := 0; round < s.n; round++ {
		if err := s.pollAbort(); err != nil {
			return err
		}
		changed := false
		for u := 0; u < s.n; u++ {
			du := node[u].pot
			out := s.arcsOf(u)
			for k := range out {
				a := &out[k]
				if a.cap <= 0 {
					continue
				}
				if nd := du + a.cost; nd < node[a.to].pot {
					node[a.to].pot = nd
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

// Solve computes a minimum-cost feasible flow with successive shortest
// paths. It returns the total cost (as float64; see TotalCost) or an
// error if the instance is unbalanced, infeasible, or contains a
// negative-cost cycle of positive capacity.
//
// Solve always prices the instance as configured: a previous solve's
// flow is cleared automatically (see Reset), so mutate-and-solve-again
// needs no explicit reset.  After the first solve on a topology the
// inner loop is allocation-free.
//
// With an abort source armed (SetContext, SetDeadline, SetWorkBudget,
// or a poll hook carried by the context) the solve can additionally
// return ErrCanceled or ErrBudgetExhausted; the pre-solve state is
// restored, so a subsequent solve is bit-identical to one on a
// never-aborted twin.  Panics surface as ErrEngineFailed, after which
// the next solve starts from clean residuals.  See abort.go.
func (s *Solver) Solve() (float64, error) {
	return s.runEngine(nil, false)
}

// ResolveChanged incrementally repairs the previous optimal flow after
// the listed arcs changed cost and/or capacity: the changed arcs' flow
// is drained back to their endpoints and only the resulting imbalance
// (plus any supply deltas, which are detected automatically) is
// rerouted on the residual graph, instead of rerouting every supply
// from scratch.  changed must include every arc mutated with
// SetCost/UpdateCapacity since the last successful solve; listing
// unchanged arcs is allowed (they are drained and rerouted too, just
// wastefully).  Without a reusable previous flow — first solve or
// topology change — it falls back to a full Solve.
//
// ResolveChanged honors the same abort sources and failure contract as
// Solve (see abort.go): an aborted repair restores the pre-call state,
// including repairability of the previous flow.
func (s *Solver) ResolveChanged(changed []int32) (float64, error) {
	return s.runEngine(changed, true)
}

// beginSolve is the shared full-solve preamble: balance check,
// residual reset after a prior solve, and potential validation
// (warm-start scan with Bellman–Ford fallback).  The arcs must already
// be laid out (runEngine prepares before the attempt snapshot).
func (s *Solver) beginSolve(st *Stats) error {
	var sum int64
	for _, b := range s.supply {
		sum += b
	}
	if sum != 0 {
		return ErrUnbalanced
	}
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
		fwd, rev := s.pair(id)
		net[rev.to] += f
		net[fwd.to] -= f
	}
	for v := 0; v < s.n; v++ {
		if net[v] != s.supply[v] {
			return fmt.Errorf("mcmf: node %d net outflow %d != supply %d", v, net[v], s.supply[v])
		}
	}
	for u := 0; u < s.n; u++ {
		for _, a := range s.arcsOf(u) {
			if a.cap <= 0 {
				continue
			}
			if rc := a.cost + s.node[u].pot - s.node[a.to].pot; rc < 0 {
				return fmt.Errorf("mcmf: residual arc %d->%d has negative reduced cost %d", u, a.to, rc)
			}
		}
	}
	return nil
}
