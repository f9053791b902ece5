// Successive shortest paths: the Solver's one flow algorithm and its
// routing loops.  Every search — per-source, phase or resolve — runs on
// the radix heap (shortestPath in radix.go); the search state is the
// Solver's own (search.go).  A search settles nodes in non-decreasing
// distance, ties in push order, and stops at the first deficit it
// pops, so which of several equally near deficits a path reaches, and
// with it the final potentials, follows from that order.
//
// Two loops route supply.  The per-source loop (augmentSome) runs one
// search per augmentation, from one source to its nearest deficit.
// Primal–dual phases (routePhases; Ahuja, Magnanti & Orlin, Network
// Flows, §9.8) run one search from every source at once, truncated at
// the nearest deficit's distance D, update the potentials by the same
// settled-only rule one augmentation uses, and a Dinic-style blocking
// flow then routes every source that reaches a deficit over residual
// arcs of zero reduced cost.  On the wide, shallow D-phase networks of
// trees one phase routes thousands of sources that the per-source loop
// would each search for.  Where phases stop paying — meshes and
// ISCAS-like netlists, where after the first phase each one routes a
// path or two — the per-source loop takes over: routePhases races the
// two by measured visited nodes per routed path.
//
// Full solves start in phases.  Incremental repairs (resolve.go) start
// in the per-source loop, which on a mesh routes a repair at about 16
// visited nodes per path, and hand over to phases when it falls far
// behind.  Either way no run of the per-source loop is unbounded: one
// that has done a phase's worth of work at a worse rate per path than
// the phases quits (raceLimit), because on trees a single path costs
// anywhere from 5 to tens of thousands of visited nodes.  The final
// potentials, which internal/dcs reads as the D-phase duals, match the
// per-source loop's alone on every instance TestPhasesMatchClassicLoop
// covers, full solves and resolves alike.
package mcmf

import "math"

// sourcesOf lists the nodes with positive excess in the solver's
// source scratch.
func (s *Solver) sourcesOf(excess []int64) []int32 {
	srcs := s.sources[:0]
	for v := 0; v < s.n; v++ {
		if excess[v] > 0 {
			srcs = append(srcs, int32(v))
		}
	}
	return srcs
}

// raceLimit bounds one run of the per-source loop, after its first
// augmentation: the run stops once it has visited budget nodes, and
// quits early once it has visited floor nodes at more nodes per routed
// path than the yardstick's visited/augs, provided at least sources
// sources still have excess.
type raceLimit struct {
	budget, floor int64
	visited, augs int64 // the yardstick rate to beat; augs > 0
	sources       int
}

// unlimited lets the per-source loop route every supply.
var unlimited = raceLimit{budget: math.MaxInt64, floor: math.MaxInt64, augs: 1}

// hasSources reports whether at least k of srcs still have excess.
func hasSources(srcs []int32, excess []int64, k int) bool {
	for _, v := range srcs {
		if k <= 0 {
			break
		}
		if excess[v] > 0 {
			k--
		}
	}
	return k <= 0
}

// augmentSome runs the per-source loop over srcs, last source first,
// until no source has excess left or lim stops it, and returns the
// nodes it visited, the paths it routed, and whether it quit early on
// lim's rate rule with supply left.
func (s *Solver) augmentSome(srcs []int32, excess []int64, st *Stats, lim raceLimit) (visited, augs int64, quit bool, err error) {
	v0 := st.Visited
	for {
		for len(srcs) > 0 && excess[srcs[len(srcs)-1]] <= 0 {
			srcs = srcs[:len(srcs)-1]
		}
		if len(srcs) == 0 {
			break // all supplies routed
		}
		if v := st.Visited - v0; augs > 0 {
			if v >= lim.budget {
				break
			}
			if v >= lim.floor && v*lim.augs > lim.visited*augs && hasSources(srcs, excess, lim.sources) {
				quit = true
				break
			}
		}
		if err := s.pollAbort(); err != nil {
			return 0, 0, false, err
		}
		if err := s.augmentFrom(srcs[len(srcs)-1:], excess, st); err != nil {
			return 0, 0, false, err
		}
		augs++
	}
	return st.Visited - v0, augs, quit, nil
}

// augmentFrom is one step of the per-source loop: a search from the
// single source in src to the nearest deficit, then the augmentation
// along its path.
func (s *Solver) augmentFrom(src []int32, excess []int64, st *Stats) error {
	target, dt := s.shortestPath(src, excess)
	if target == -1 {
		return ErrInfeasible
	}
	st.Augmentations++
	st.Visited += int64(len(s.ss.visited))
	s.applyAugmentation(src[0], target, dt, excess)
	return nil
}

// solveSSP is the full solve: preamble, phased supply routing, and the
// solved-state bookkeeping.
func (s *Solver) solveSSP() (float64, error) {
	st := &s.st
	if err := s.beginSolve(st); err != nil {
		return 0, err
	}
	s.ensureSSP()
	excess := s.excess[:s.n]
	copy(excess, s.supply)
	// Augmentations mutate the residuals from here on; mark them dirty
	// up front so even an infeasible early return is cleaned up by the
	// next Solve, and unrepairable until markSolved certifies them.
	s.flowDirty = true
	s.repairable = false
	mark := *st
	if err := s.routePhases(excess, st); err != nil {
		return 0, err
	}
	s.markSolved()
	st.Solves++
	s.noteFullRun(mark, *st)
	return s.TotalCost(), nil
}

// phaseWindow is how many recent phases the switch to the per-source
// loop weighs together.  On a tree's D-phase network, phases that
// search most of the network to route a handful of paths come in runs
// of two or three before a phase that finishes half the sources, so a
// single phase is too short a sample.
const phaseWindow = 3

// routePhases routes every supply in excess, in primal–dual phases
// while they pay and in races of the per-source loop while they do
// not.
//
// A phase runs one search from every node with positive excess,
// truncated at the first deficit's distance D, and applies the same
// settled-only potential update as a single augmentation
// (updatePotentials); a blocking flow then routes every source that can
// reach a deficit over residual arcs of zero reduced cost.
//
// The switch compares measured work, in the nodes Stats.Visited bills.
// Once phaseWindow phases have run, and again whenever the last
// phaseWindow phases visited more nodes per routed path than the last
// race, the per-source loop races them: it routes from the remaining
// sources until it has visited as many nodes as the last phase did.
// While a race beats the phase window, the next race gets twice the
// budget, so where phases have stopped paying the per-source loop
// finishes the tail after a few doublings.  A race that has used the
// first budget and routes at a worse rate than the window quits at
// once instead of running out its doubled budget, and phases resume.
// A race routes real supply, so one that loses to the phases still
// makes progress.
func (s *Solver) routePhases(excess []int64, st *Stats) error {
	srcs := s.sourcesOf(excess)
	var visited, augs [phaseWindow]int64 // per phase, ring-indexed
	var winVisited, winAugs int64        // sums over the ring
	var raceVisited, raceAugs int64      // the last race; raceAugs 0 before the first
	for i := 0; len(srcs) > 0; i++ {
		if err := s.pollAbort(); err != nil {
			return err
		}
		v0, a0 := st.Visited, st.Augmentations
		target, dt := s.shortestPath(srcs, excess)
		if target == -1 {
			return ErrInfeasible
		}
		st.Phases++
		st.Visited += int64(len(s.ss.visited))
		s.updatePotentials(dt)
		if err := s.blockingFlow(srcs, excess, st); err != nil {
			return err
		}
		srcs = activeSources(srcs, excess)
		k := i % phaseWindow
		v, a := st.Visited-v0, st.Augmentations-a0
		winVisited += v - visited[k]
		winAugs += a - augs[k]
		visited[k], augs[k] = v, a
		if i+1 < phaseWindow {
			continue
		}
		// Race while the phase window costs more per path than the
		// last race (or before the first race).  A race that quits has
		// lost to the window, which ends the loop.
		for budget := v; len(srcs) > 0 && (raceAugs == 0 || winVisited*raceAugs > raceVisited*winAugs); budget *= 2 {
			lim := raceLimit{budget: budget, floor: v, visited: winVisited, augs: winAugs}
			var quit bool
			var err error
			if raceVisited, raceAugs, quit, err = s.augmentSome(srcs, excess, st, lim); err != nil {
				return err
			}
			st.Races++
			if quit {
				st.RaceQuits++
			}
			srcs = activeSources(srcs, excess)
		}
	}
	return nil
}

// activeSources compacts srcs in place to the nodes that still have
// positive excess.
func activeSources(srcs []int32, excess []int64) []int32 {
	k := 0
	for _, v := range srcs {
		if excess[v] > 0 {
			srcs[k] = v
			k++
		}
	}
	return srcs[:k]
}

// blockingFlow routes excess from srcs to deficit nodes over the
// admissible graph — residual arcs of zero reduced cost — Dinic style.
// A BFS from every source labels hop levels (in the node records'
// dist, stopping at the level of the nearest deficits); a DFS then
// pushes along level-increasing admissible arcs, keeping a current-arc
// position per node (in the records' prev) and retiring dead ends,
// until no source can reach a deficit in the level graph.  Potentials
// are untouched, so every reduced cost stays non-negative.
func (s *Solver) blockingFlow(srcs []int32, excess []int64, st *Stats) error {
	sc := &s.ss
	s.beginSearch()
	for _, src := range srcs {
		s.touch(src)
		s.node[src].dist = 0
	}
	sink := int64(inf) // level of the nearest deficits
	for i := 0; i < len(sc.visited); i++ {
		u := sc.visited[i]
		nu := &s.node[u]
		nu.prev = s.csrStart[u]
		lu := nu.dist
		if lu >= sink {
			continue // deficits and dead ends: nothing beyond them is needed
		}
		pu := nu.pot
		out := s.arcsOf(int(u))
		for k := range out {
			a := &out[k]
			v := a.to
			nv := &s.node[v]
			if a.cap <= 0 || nv.stamp == sc.epoch || a.cost+pu-nv.pot > 0 {
				continue
			}
			s.touch(v)
			nv.dist = lu + 1
			if excess[v] < 0 && sink == inf {
				sink = lu + 1
			}
		}
	}
	st.Visited += int64(len(sc.visited))

	// Serve sources last first, the per-source loop's order.  In
	// ascending order a mesh's cold solve visited 50% more nodes: the
	// sources the first phase left were farther from their deficits.
	for i := len(srcs) - 1; i >= 0; i-- {
		src := srcs[i]
		path := s.path[:0]
		u := src
		for excess[src] > 0 {
			if excess[u] < 0 {
				bott := min(excess[src], -excess[u])
				for _, ai := range path {
					bott = min(bott, s.arcs[ai].cap)
				}
				for _, ai := range path {
					a := &s.arcs[ai]
					a.cap -= bott
					s.arcs[a.rev].cap += bott
				}
				excess[src] -= bott
				excess[u] += bott
				st.Augmentations++
				if err := s.pollAbort(); err != nil {
					return err
				}
				path, u = path[:0], src
				continue
			}
			if ai, ok := s.admissibleArc(u); ok {
				path = append(path, ai)
				u = s.arcs[ai].to
				continue
			}
			// Dead end: retire u (no level matches −1) and retreat.
			s.node[u].dist = -1
			if len(path) == 0 {
				break
			}
			ai := path[len(path)-1]
			path = path[:len(path)-1]
			u = s.arcs[s.arcs[ai].rev].to
			s.node[u].prev++
		}
	}
	return nil
}

// admissibleArc advances u's current-arc position to the next residual
// arc of zero reduced cost into the next BFS level and returns it.
func (s *Solver) admissibleArc(u int32) (int32, bool) {
	sc := &s.ss
	nu := &s.node[u]
	next := nu.dist + 1
	pu := nu.pot
	end := s.csrStart[u+1]
	for p := nu.prev; p < end; p++ {
		a := &s.arcs[p]
		v := a.to
		if nv := &s.node[v]; a.cap > 0 && nv.stamp == sc.epoch && nv.dist == next && a.cost+pu-nv.pot <= 0 {
			nu.prev = p
			return p, true
		}
	}
	nu.prev = end
	return 0, false
}
