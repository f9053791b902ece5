// Incremental re-flow (drain-and-reroute) behind ResolveChanged.
//
// The D-phase solves the same network dozens of times with small cost
// and supply deltas between solves.  A warm full solve already skips
// Bellman–Ford, but it still resets every residual and reroutes the
// entire supply.  Resolve exploits the previous optimum instead:
//
//  1. the flow carried by each changed arc is drained back to its
//     endpoints (creating a local excess/deficit pair) and the arc's
//     residuals are restored to its configured capacity;
//  2. supply deltas against the last solved configuration are added to
//     the excess vector (so supply changes need no explicit
//     notification);
//  3. changed arcs whose new reduced cost is negative are saturated —
//     their full capacity is pushed, removing them from the residual
//     graph (their reverse arcs price positively by construction).
//     Unchanged arcs still satisfy reduced-cost optimality by the
//     previous certificate, so after this step the old potentials are
//     valid on the entire residual graph with no Bellman–Ford repair;
//  4. the resulting imbalance (typically a tiny fraction of the total
//     supply) is rerouted on the residual graph — which may use reverse
//     arcs, i.e. undo earlier routing, so the repaired flow is exactly
//     optimal for the new configuration, not an approximation
//     (certified by Verify, asserted bit-equal to fresh solves by
//     TestResolveMatchesFreshRandom).  The per-source loop routes it
//     first: a mesh repair costs it about 16 visited nodes per path.
//     On trees a single path can cost tens of thousands, so once the
//     loop has visited n nodes at more than n/8 nodes per path with at
//     least 8 sources left, the rest goes to primal–dual phases
//     (routePhases in ssp.go, with its races); no phase has run yet to
//     measure against, so the network size is the yardstick.  A
//     repair with fewer sources left keeps the per-source loop: a
//     phase costs up to about n visited nodes, so it cannot beat n/8
//     per path with fewer than 8 paths to route.
//
// One semantic difference from a full Solve: saturation prices
// negative-cost structures away instead of detecting them, so a
// configuration whose *configured* arcs close a negative-cost cycle of
// positive capacity re-flows to the true (finite, capacity-bounded)
// optimum rather than returning ErrNegativeCycle.  D-phase instances
// never contain such cycles (r = 0 is always feasible); callers that
// rely on the detection behaviour use Solve.
//
// # The work-estimate gate
//
// Re-flowing is not always cheaper: an iteration that moves many
// supplies (every D-phase round rewrites the objective coefficients)
// can cost more to repair than to re-solve warm.  The gate estimates
// both sides in "visited nodes" — the unit shortest-path searches are
// actually billed in — and hands over to the full solve when the
// repair estimate is larger.  Per-problem cost coefficients are
// learned online: every full run and every incremental run updates an
// exponential moving average of visited-nodes-per-augmentation on its
// side (Solver.ewmaFullVisits / ewmaResolveVisits), so the gate
// adapts to the network's real topology instead of a hardwired
// constant.  Until both averages are seeded the gate falls back to
// the static PR-3 heuristic (supply deltas weighted 64×, arc repairs
// 1×, against one augmentation per source) — pinned by
// TestResolveGateFallback.
package mcmf

import "math"

// ewmaAlpha is the smoothing factor of the per-problem augmentation
// cost averages: a quarter of each run's fresh measurement, three
// quarters history — fast enough to track a mid-run regime change
// (e.g. the budget window collapsing), slow enough that one outlier
// round cannot flip the gate.
const ewmaAlpha = 0.25

// supplyDeltaWeight is the static gate's weight for a shifted supply:
// supply deltas pair arbitrary nodes and their augmentations can cross
// the whole network — measured ~40× the cost of a local arc repair on
// wide/shallow DAGs — so they carry a heavy weight until measured
// averages replace the estimate.
const supplyDeltaWeight = 64

// noteFullRun updates the full-solve cost average from one completed
// run: mark is the Solver's counters before the run, now after.
func (s *Solver) noteFullRun(mark, now Stats) {
	s.ewmaFullVisits = ewmaUpdate(s.ewmaFullVisits, mark, now)
}

// noteResolveRun updates the incremental-repair cost average.
func (s *Solver) noteResolveRun(mark, now Stats) {
	s.ewmaResolveVisits = ewmaUpdate(s.ewmaResolveVisits, mark, now)
}

func ewmaUpdate(prev float64, mark, now Stats) float64 {
	augs := now.Augmentations - mark.Augmentations
	if augs <= 0 {
		return prev // nothing measured this run
	}
	sample := float64(now.Visited-mark.Visited) / float64(augs)
	if prev == 0 {
		return sample
	}
	return prev + ewmaAlpha*(sample-prev)
}

// resolveGate decides whether the incremental repair is worth running:
// it estimates the repair (one augmentation per drained flow-carrying
// arc, re-priced negative arc and shifted supply) against the warm
// full solve (one augmentation per source).  With seeded per-problem
// averages both sides are priced in measured visited nodes; otherwise
// the static heuristic applies.  Returns true to run incrementally.
func (s *Solver) resolveGate(changed []int32) bool {
	arcRepairs, supplyDeltas, srcs := 0, 0, 0
	for v := 0; v < s.n; v++ {
		if s.supply[v] > 0 {
			srcs++
		}
		if s.supply[v] != s.routed[v] {
			supplyDeltas++
		}
	}
	for _, id := range changed {
		fwd, rev := &s.arcs[2*id], &s.arcs[2*id+1]
		if rev.cap > 0 {
			arcRepairs++
		} else if s.orig[id] > 0 && fwd.cost+s.pot[rev.to]-s.pot[fwd.to] < 0 {
			arcRepairs++ // will saturate
		}
	}
	if s.ewmaFullVisits > 0 && s.ewmaResolveVisits > 0 {
		// Measured gate: arc repairs are local (the drain leaves the
		// deficit right at the arc's head) and bill at the measured
		// incremental rate; supply deltas pair arbitrary nodes, so
		// their reroutes look like full-solve augmentations.
		repair := float64(arcRepairs)*s.ewmaResolveVisits +
			float64(supplyDeltas)*s.ewmaFullVisits
		full := float64(srcs) * s.ewmaFullVisits
		return repair <= full
	}
	// Static fallback (the pre-measurement heuristic).
	return arcRepairs+supplyDeltaWeight*supplyDeltas <= srcs
}

// resolvePrep is the shared Resolve preamble: repairability and
// balance checks, the work-estimate gate, the supply diff and the
// drain-and-reprice of the changed arcs.  On success it returns the
// excess vector ready for augmentation; fallback=true means the
// caller must run its full Solve instead (counting the fallback).
// resolvePrep allocates nothing, preserving the warm zero-alloc
// guarantee.
func (s *Solver) resolvePrep(changed []int32) (excess []int64, fallback bool, err error) {
	if !s.repairable || s.topoDirty {
		return nil, true, nil
	}
	var sum int64
	for _, b := range s.supply {
		sum += b
	}
	if sum != 0 {
		return nil, false, ErrUnbalanced
	}
	// Hand over before touching any residuals when the estimated
	// repair exceeds the warm full solve; iterations whose deltas
	// quiesce come back to the incremental path on their own.
	if !s.resolveGate(changed) {
		return nil, true, nil
	}
	// Supply deltas against the routed snapshot.
	excess = s.excess[:s.n]
	for v := 0; v < s.n; v++ {
		excess[v] = s.supply[v] - s.routed[v]
	}
	// The drain below and the augmentations after it mutate residuals:
	// until markSolved re-certifies them, the flow is neither optimal
	// nor repairable (a failed resolve leaves partial routing behind,
	// which the next solve resets and the next resolve must not trust).
	s.solved = false
	s.repairable = false
	// Drain the changed arcs and restore their configured capacity
	// (reconciling any staged UpdateCapacity), then re-price: an arc
	// whose new reduced cost is negative is saturated so it leaves the
	// residual graph.  Draining twice is harmless, so duplicate IDs in
	// changed are allowed (the saturation is skipped the second time
	// because the forward residual is already empty only when the arc
	// re-prices negative, and re-running it is idempotent).
	for _, id := range changed {
		fwd, rev := &s.arcs[2*id], &s.arcs[2*id+1]
		u, v := rev.to, fwd.to
		if f := rev.cap; f > 0 {
			excess[u] += f
			excess[v] -= f
		}
		fwd.cap = s.orig[id]
		rev.cap = 0
		if fwd.cap > 0 && fwd.cost+s.pot[u]-s.pot[v] < 0 {
			excess[u] -= fwd.cap
			excess[v] += fwd.cap
			rev.cap = fwd.cap
			fwd.cap = 0
		}
	}
	return excess, false, nil
}

// resolve is the incremental repair behind ResolveChanged, falling
// back to a full solve when no repairable flow exists.  The
// cost-scaling oracle repairs through it too, on the exact potentials
// its full solve recovers.
func (s *Solver) resolve(changed []int32) (float64, error) {
	st := &s.st
	excess, fallback, err := s.resolvePrep(changed)
	if err != nil {
		return 0, err
	}
	if fallback {
		st.FullFallbacks++
		return s.solveFull()
	}
	s.ensureSSP()
	mark := *st
	// The per-source loop first, handing over to phases once it falls
	// far behind (step 4 in the file comment).
	n := int64(s.n)
	lim := raceLimit{budget: math.MaxInt64, floor: n, visited: n, augs: 8, sources: 8}
	_, _, handover, err := s.augmentSome(s.sourcesOf(excess), excess, st, lim)
	if err != nil {
		return 0, err
	}
	if handover {
		if err := s.routePhases(excess, st); err != nil {
			return 0, err
		}
	}
	s.markSolved()
	st.Resolves++
	s.noteResolveRun(mark, *st)
	return s.TotalCost(), nil
}
