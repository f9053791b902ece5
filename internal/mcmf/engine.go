// Engine architecture: the Solver struct (mcmf.go) is the shared
// residual-network state core — arc storage in forward/backward pairs,
// supplies, the CSR adjacency index, node potentials and the
// epoch-stamped scratch — while the algorithms that drive it to
// optimality live behind the Engine interface.  Three backends are
// registered:
//
//	"ssp"         successive shortest paths, heap Dijkstra (the default)
//	"dial"        successive shortest paths, Dial bucket-queue Dijkstra
//	              (exploits the small reduced costs of warm-started
//	              D-phase instances; falls back to the heap per
//	              augmentation when distances outgrow the bucket ring)
//	"costscaling" Goldberg–Tarjan cost-scaling push-relabel, serial
//	              LIFO discharge (costscaling.go over scalingcore.go) —
//	              the second, independent algorithm the conformance
//	              suite cross-checks the SSP family against
//
// Engines are cheap per-Solver objects: a factory from the registry
// owns only algorithm-local scratch (the dial bucket ring, the heap)
// and counters, so switching engines mid-life keeps all network state
// — flow, potentials, warm-start validity — intact.
//
// Solve computes a minimum-cost flow from the configured instance
// state.  Resolve is the incremental path: given the set of arc IDs
// whose cost or capacity changed since the last successful solve, it
// repairs the existing optimal flow (drain-and-reroute on the residual
// graph, see resolve.go) instead of rerouting every supply from
// scratch.  Engines that cannot re-flow incrementally (cost-scaling)
// fall back to a full Solve and say so in their Stats.
package mcmf

import (
	"fmt"
	"sort"
	"sync"
)

// Stats counts the work an engine performed over its lifetime.  All
// counters are cumulative; Solver.EngineStats exposes them.
type Stats struct {
	// Solves and Resolves count successful full and incremental runs.
	Solves   int
	Resolves int
	// Augmentations counts augmenting paths (SSP engines): one per
	// search in the per-source loop, one per path a phase's blocking
	// flow routes.
	Augmentations int64
	// Phases counts the primal–dual phases of SSP runs — full solves,
	// and resolves that hand over to phases: one multi-source search
	// plus one blocking flow each (ssp.go).
	Phases int64
	// Races counts the runs of the per-source loop that race the
	// phases, and RaceQuits the races that quit early because they fell
	// behind the phase window's rate per path (ssp.go).
	Races     int64
	RaceQuits int64
	// BellmanFords counts potential (re)builds — zero on a pure
	// warm-start trajectory.
	BellmanFords int
	// DialFallbacks counts augmentations the dial engine handed to the
	// heap because a reduced cost outgrew the bucket ring.
	DialFallbacks int64
	// FullFallbacks counts Resolve calls that ran a full Solve instead
	// (no prior flow, topology changed, or the engine cannot re-flow).
	FullFallbacks int
	// Visited counts the nodes touched by shortest-path searches
	// (SSP engines) — the work measure behind the EWMA resolve gate.
	// A phase adds the nodes its multi-source search touched plus the
	// nodes its level BFS labelled.
	Visited int64
}

// engineCore is the Stats bookkeeping every built-in engine embeds:
// the counter storage, its accessor, and the per-problem work-counter
// reset hooked into Solver.Reset (so back-to-back problems on a reused
// solver report per-problem numbers for the work counters while the
// lifetime counters — Solves, Resolves, fallbacks — stay cumulative).
type engineCore struct {
	st Stats
}

func (e *engineCore) Stats() Stats { return e.st }

// ResetWorkCounters zeroes the per-problem work counter (Visited).
// Solver.Reset calls this on the active engine; lifetime counters are
// untouched.
func (e *engineCore) ResetWorkCounters() { e.st.Visited = 0 }

// workCounterResetter is the optional interface Solver.Reset uses to
// clear per-problem work counters; externally registered engines may
// implement it too.
type workCounterResetter interface{ ResetWorkCounters() }

// Engine is a min-cost-flow algorithm over a Solver's network state.
// Implementations keep only algorithm-local scratch: all instance
// state (arcs, residuals, supplies, potentials) lives on the Solver,
// so engines are interchangeable mid-life.
type Engine interface {
	// Name returns the registry name of the backend.
	Name() string
	// Solve computes a minimum-cost feasible flow from the instance
	// state, routing every supply.  Same contract as Solver.Solve.
	Solve(s *Solver) (float64, error)
	// Resolve incrementally repairs the previous optimal flow after
	// the listed arcs changed cost and/or capacity (and supplies moved
	// arbitrarily).  The changed set must include every arc whose cost
	// or capacity was mutated since the last successful Solve/Resolve;
	// supplies are diffed automatically.  Falls back to Solve when no
	// reusable flow exists.
	Resolve(s *Solver, changed []int32) (float64, error)
	// Stats reports cumulative work counters.
	Stats() Stats
}

// engineFactories is the backend registry, guarded by engineMu: the
// built-in backends register from init, but test binaries register at
// runtime (internal/fault's "fault" wrapper) while server sessions may
// be instantiating engines concurrently, so reads and writes must
// synchronize (TestRegistryConcurrentAccess drives this under -race).
var (
	engineMu        sync.RWMutex
	engineFactories = map[string]func() Engine{}
)

// Register adds an engine factory under name.  Registering a duplicate
// name panics — backends are package-level singleton names.  Safe for
// concurrent use with NewEngine/EngineNames/ValidEngine.
func Register(name string, factory func() Engine) {
	engineMu.Lock()
	defer engineMu.Unlock()
	if _, dup := engineFactories[name]; dup {
		panic(fmt.Sprintf("mcmf: engine %q registered twice", name))
	}
	engineFactories[name] = factory
}

// unregister removes a backend from the registry.  Test-only: the race
// test registers throwaway names and must not leave them behind for
// the conformance suites (which enumerate EngineNames dynamically).
func unregister(name string) {
	engineMu.Lock()
	defer engineMu.Unlock()
	delete(engineFactories, name)
}

// NewEngine instantiates a registered backend by name.
func NewEngine(name string) (Engine, error) {
	engineMu.RLock()
	f, ok := engineFactories[name]
	engineMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("mcmf: unknown engine %q (have %v)", name, EngineNames())
	}
	return f(), nil
}

// EngineNames lists the registered backends in sorted order.
func EngineNames() []string {
	engineMu.RLock()
	names := make([]string, 0, len(engineFactories))
	for n := range engineFactories {
		names = append(names, n)
	}
	engineMu.RUnlock()
	sort.Strings(names)
	return names
}

// ValidEngine reports whether name is a registered backend.
func ValidEngine(name string) bool {
	engineMu.RLock()
	defer engineMu.RUnlock()
	_, ok := engineFactories[name]
	return ok
}

func init() {
	Register("ssp", func() Engine { return &sspEngine{} })
	Register("dial", func() Engine { return &dialEngine{} })
	Register("costscaling", func() Engine { return &costScalingEngine{} })
}

// SetEngine switches the solver to the named backend.  Network state
// (flow, potentials, warm-start validity) is untouched, so engines can
// be swapped between solves; only algorithm scratch is re-created.
// Switching to the name already in use is a no-op.
func (s *Solver) SetEngine(name string) error {
	if s.eng != nil && s.eng.Name() == name {
		return nil
	}
	e, err := NewEngine(name)
	if err != nil {
		return err
	}
	s.eng = e
	return nil
}

// EngineName returns the name of the active backend ("ssp" until
// SetEngine is called).
func (s *Solver) EngineName() string { return s.engine().Name() }

// EngineStats returns the active backend's cumulative work counters.
func (s *Solver) EngineStats() Stats { return s.engine().Stats() }

// engine returns the active backend, lazily defaulting to "ssp".
func (s *Solver) engine() Engine {
	if s.eng == nil {
		s.eng = &sspEngine{}
	}
	return s.eng
}
