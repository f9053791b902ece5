// Successive-shortest-paths machinery shared by the "ssp" and "dial"
// engines: the source-selection/augmentation loop is common, and the
// per-augmentation shortest-path search is pluggable (heap Dijkstra in
// search.go, Dial bucket Dijkstra in dial.go).
package mcmf

// pathFinder runs one shortest-path search on reduced costs from src,
// filling the solver's own scratch (s.ss) for the settled region, and
// returns the first node with negative excess together with its
// distance, or target −1 when no deficit node is reachable.
type pathFinder interface {
	shortestPath(s *Solver, src int32, excess []int64) (target int32, dt int64)
}

// heapFinder is Dijkstra on the inline 4-ary heap — the classic SSP
// inner loop, and the fallback the dial engine reaches for when a
// reduced cost outgrows its bucket ring.
type heapFinder struct{}

func (heapFinder) shortestPath(s *Solver, src int32, excess []int64) (int32, int64) {
	return s.dijkstraHeap(src, excess)
}

// augmentAll routes every positive excess to a deficit node along
// reduced-cost shortest paths, updating potentials after each
// augmentation.  excess must be balanced (sums to zero); residuals are
// mutated in place.
func (s *Solver) augmentAll(excess []int64, pf pathFinder, st *Stats) error {
	srcs := s.sources[:0]
	for v := 0; v < s.n; v++ {
		if excess[v] > 0 {
			srcs = append(srcs, int32(v))
		}
	}
	s.sources = srcs // retain grown capacity for the next solve
	for {
		if err := s.pollAbort(); err != nil {
			return err
		}
		// Pick any node with positive excess.
		src := int32(-1)
		for len(srcs) > 0 {
			v := srcs[len(srcs)-1]
			if excess[v] > 0 {
				src = v
				break
			}
			srcs = srcs[:len(srcs)-1]
		}
		if src == -1 {
			break // all supplies routed
		}
		target, dt := pf.shortestPath(s, src, excess)
		if target == -1 {
			return ErrInfeasible
		}
		st.Augmentations++
		st.Visited += int64(len(s.ss.visited))
		s.applyAugmentation(src, target, dt, excess)
	}
	return nil
}

// sspEngine is successive shortest paths with the heap Dijkstra — the
// default backend, bit-identical to the pre-engine Solver.Solve.
type sspEngine struct {
	engineCore
}

func (e *sspEngine) Name() string { return "ssp" }

func (e *sspEngine) Solve(s *Solver) (float64, error) {
	return solveSSPFull(s, heapFinder{}, &e.st)
}

// solveSSPFull is the full solve shared by the SSP-family engines
// ("ssp" and "dial" differ only in their path finder): preamble,
// supply routing, and the solved-state bookkeeping.
func solveSSPFull(s *Solver, pf pathFinder, st *Stats) (float64, error) {
	if err := s.beginSolve(st); err != nil {
		return 0, err
	}
	excess := s.excess[:s.n]
	copy(excess, s.supply)
	// Augmentations mutate the residuals from here on; mark them dirty
	// up front so even an infeasible early return is cleaned up by the
	// next Solve, and unrepairable until markSolved certifies them.
	s.flowDirty = true
	s.repairable = false
	mark := *st
	if err := s.augmentAll(excess, pf, st); err != nil {
		return 0, err
	}
	s.markSolved()
	st.Solves++
	s.noteFullRun(mark, *st)
	return s.TotalCost(), nil
}

func (e *sspEngine) Resolve(s *Solver, changed []int32) (float64, error) {
	return resolveSSP(s, changed, heapFinder{}, &e.st, e.Solve)
}
