// Engine architecture: the Solver struct (mcmf.go) is the shared
// residual-network state core — arc storage in forward/backward pairs,
// supplies, the CSR adjacency index, node potentials and the
// epoch-stamped search scratch — while the algorithms that drive it to
// optimality live behind the Engine interface.  Two backends are
// registered:
//
//	"ssp"         successive shortest paths (ssp.go), each search
//	              Dial's bucket queue with a heap fallback (dial.go) —
//	              the default; "", "auto" and the deprecated "dial"
//	              name it too
//	"costscaling" Goldberg–Tarjan cost-scaling push-relabel, serial
//	              LIFO discharge (costscaling.go over scalingcore.go) —
//	              the second, independent algorithm the conformance
//	              suite cross-checks ssp against
//
// Engines are cheap per-Solver objects: a factory from the registry
// owns only counters and algorithm-local scratch (cost-scaling's
// prices; the shortest-path search state belongs to the Solver), so
// switching engines mid-life keeps all network state — flow,
// potentials, warm-start validity — intact.
//
// Solve computes a minimum-cost flow from the configured instance
// state.  Resolve is the incremental path: given the set of arc IDs
// whose cost or capacity changed since the last successful solve, it
// repairs the existing optimal flow (drain-and-reroute on the residual
// graph, see resolve.go) instead of rerouting every supply from
// scratch, and falls back to a full Solve when the repair is refused
// (and says so in its Stats).
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
	// HeapFallbacks counts searches the bucket search handed to the
	// heap because distances outgrew the bucket ring.
	HeapFallbacks int64
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

// CanonicalEngine returns the registry name a backend name selects:
// "", "auto" and the deprecated "dial" select "ssp", and any other
// name selects itself.  ok reports whether that backend is registered.
func CanonicalEngine(name string) (canon string, ok bool) {
	switch name {
	case "", "auto", "dial":
		name = "ssp"
	}
	engineMu.RLock()
	defer engineMu.RUnlock()
	_, ok = engineFactories[name]
	return name, ok
}

// NewEngine instantiates a backend by name (see CanonicalEngine).
func NewEngine(name string) (Engine, error) {
	name, _ = CanonicalEngine(name)
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

// ValidEngine reports whether name selects a registered backend (see
// CanonicalEngine).
func ValidEngine(name string) bool {
	_, ok := CanonicalEngine(name)
	return ok
}

func init() {
	Register("ssp", func() Engine { return &sspEngine{} })
	Register("costscaling", func() Engine { return &costScalingEngine{} })
}

// SetEngine switches the solver to the named backend (see
// CanonicalEngine).  Network state (flow, potentials, warm-start
// validity, the search scratch) is untouched, so engines can be
// swapped between solves; only algorithm scratch and counters are
// re-created.  Switching to the backend already in use — under any of
// its names — is a no-op that keeps its counters.
func (s *Solver) SetEngine(name string) error {
	name, _ = CanonicalEngine(name)
	if s.engine().Name() == name {
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
