// One flow algorithm: the Solver struct (mcmf.go) is the
// residual-network state — arc storage in forward/backward pairs,
// supplies, the CSR adjacency index, node potentials and the
// epoch-stamped search scratch — and Solve/ResolveChanged always drive
// it with successive shortest paths (ssp.go), each search Dial's
// bucket queue with a heap fallback (dial.go).
//
// Goldberg–Tarjan cost scaling (costscaling.go over scalingcore.go)
// stays in the package as the independent algorithm the conformance
// suite checks ssp against; only the package's tests switch a Solver
// to it (useCostScaling).
//
// Solve computes a minimum-cost flow from the configured instance
// state.  Resolve is the incremental path: given the set of arc IDs
// whose cost or capacity changed since the last successful solve, it
// repairs the existing optimal flow (drain-and-reroute on the residual
// graph, see resolve.go) instead of rerouting every supply from
// scratch, and falls back to a full Solve when the repair is refused
// (and says so in its Stats).
package mcmf

// Stats counts the work a Solver's solves performed over its lifetime.
// All counters are cumulative; Solver.EngineStats exposes them.
type Stats struct {
	// Solves and Resolves count successful full and incremental runs.
	Solves   int
	Resolves int
	// Augmentations counts augmenting paths: one per search in the
	// per-source loop, one per path a phase's blocking flow routes.
	Augmentations int64
	// Phases counts the primal–dual phases of full solves and of
	// resolves that hand over to phases: one multi-source search plus
	// one blocking flow each (ssp.go).
	Phases int64
	// Races counts the runs of the per-source loop that race the
	// phases, and RaceQuits the races that quit early because they fell
	// behind the phase window's rate per path (ssp.go).
	Races     int64
	RaceQuits int64
	// BellmanFords counts potential (re)builds — zero on a pure
	// warm-start trajectory.
	BellmanFords int
	// HeapFallbacks counts searches the bucket search handed to the
	// heap because distances outgrew the bucket ring.
	HeapFallbacks int64
	// FullFallbacks counts Resolve calls that ran a full Solve instead
	// (no prior flow, topology changed, or the gate preferred one).
	FullFallbacks int
	// Visited counts the nodes touched by shortest-path searches — the
	// work measure behind the EWMA resolve gate.  A phase adds the
	// nodes its multi-source search touched plus the nodes its level
	// BFS labelled.  Solver.Reset zeroes it; the other counters are
	// lifetime counters.
	Visited int64
}

// EngineStats returns the Solver's cumulative work counters.
func (s *Solver) EngineStats() Stats { return s.st }

// solveFull is the full solve: ssp, or the cost-scaling oracle on a
// Solver a test switched to it.
func (s *Solver) solveFull() (float64, error) {
	if s.scaling != nil {
		return s.solveCostScaling()
	}
	return s.solveSSP()
}
