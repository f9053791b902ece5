// Serial cost-scaling driver (Goldberg–Tarjan).  The paper's
// complexity claim for the D-phase — O(|V|·|E|·log log |V|) — comes
// from the scaling family of algorithms [9]; this engine provides the
// classic sequential variant so the flow engines can be compared on
// D-phase-shaped instances (BenchmarkFlowEngines) and cross-checked
// for equal optimal cost (the conformance suite).
//
// The ε-scaling machinery (scaled costs, admissibility, price
// refinement, the phase schedule, the warm-start resolve) lives in
// scalingcore.go; this file contributes the discharge strategy — the
// textbook sequential loop: a LIFO stack of active vertices, each
// discharged fully (push along admissible current arcs, relabel when
// the arc list is exhausted) before the next is popped.
package mcmf

// costScalingEngine adapts the serial cost-scaling driver to the
// Engine interface.
type costScalingEngine struct {
	engineCore
	sc scalingState
}

func (e *costScalingEngine) Name() string { return "costscaling" }

func (e *costScalingEngine) Solve(s *Solver) (float64, error) {
	mark := e.st
	cost, err := solveScalingFull(s, &e.sc, &e.st)
	if err == nil {
		e.st.Solves++
		s.noteFullRun(mark, e.st)
	}
	return cost, err
}

// Resolve repairs the previous optimal flow incrementally: the exact
// potentials finishScaling recovered double as warm duals, so the
// shared SSP drain-and-reroute serves the repair (see scalingcore.go
// on why a refinement-pass repair was measured and rejected), and a
// full cost-scaling solve backs it up when the work-estimate gate
// prefers one.
func (e *costScalingEngine) Resolve(s *Solver, changed []int32) (float64, error) {
	return resolveSSP(s, changed, &e.st, e.Solve)
}

// SolveCostScaling computes a minimum-cost feasible flow with the
// serial cost-scaling push-relabel method.  It is interchangeable with
// Solve: same inputs, same optimality guarantees (Verify certifies the
// result; potentials are rescaled back to cost units).  It always runs
// the serial cost-scaling algorithm regardless of the engine
// configured with SetEngine (the "costscaling" engine is this
// algorithm behind the Engine interface).
func (s *Solver) SolveCostScaling() (float64, error) {
	var sc scalingState
	var st Stats
	return solveScalingFull(s, &sc, &st)
}

// refineSerial discharges all active vertices at sc.eps with the
// sequential LIFO strategy: saturate admissible arcs, then pop active
// vertices off a stack and discharge each fully, walking its
// current-arc cursor and relabelling (price refinement) when the
// cursor exhausts the arc list.  One Visited is billed per discharge
// — the work measure feeding the solver's EWMA resolve gate (see
// solveScalingFull on the gate's counter units).
func refineSerial(s *Solver, sc *scalingState, excess []int64, st *Stats) error {
	n := s.n
	sc.saturate(s, excess)
	active := sc.active[:0]
	for v := 0; v < n; v++ {
		sc.inActive[v] = false
		sc.cur[v] = s.csrStart[v]
		if excess[v] > 0 {
			sc.inActive[v] = true
			active = append(active, int32(v))
		}
	}
	guard := 0
	for len(active) > 0 {
		guard++
		if guard > sc.maxOps {
			sc.active = active[:0]
			return ErrInfeasible
		}
		if err := s.pollAbort(); err != nil {
			sc.active = active[:0]
			return err
		}
		v := active[len(active)-1]
		active = active[:len(active)-1]
		sc.inActive[v] = false
		st.Visited++
		// Discharge v fully.
		for excess[v] > 0 {
			if sc.cur[v] >= s.csrStart[v+1] {
				// Relabel: lower v's price just enough to create one
				// admissible arc.
				val, ok := sc.relabelValue(s, v)
				if !ok {
					sc.active = active[:0]
					return ErrInfeasible
				}
				if val < priceFloor {
					sc.active = active[:0]
					return ErrPriceRange
				}
				sc.pot[v] = val
				sc.cur[v] = s.csrStart[v]
				continue
			}
			ai := s.csrArc[sc.cur[v]]
			a := &s.arcs[ai]
			if a.cap > 0 && sc.cost[ai]+sc.pot[v]-sc.pot[a.to] < 0 {
				amt := excess[v]
				if a.cap < amt {
					amt = a.cap
				}
				excess[v] -= amt
				excess[a.to] += amt
				a.cap -= amt
				s.arcs[ai^1].cap += amt
				if to := a.to; !sc.inActive[to] && excess[to] > 0 {
					sc.inActive[to] = true
					active = append(active, to)
				}
			} else {
				sc.cur[v]++
			}
		}
	}
	sc.active = active[:0]
	return nil
}
