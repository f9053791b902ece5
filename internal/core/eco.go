// ECO edits on warm sessions: apply netlist edit deltas to the
// resident optimizer state instead of tearing the session down and
// rebuilding from source.
//
// The layering: dag.Eco patches the problem (coefficients, CSR, graph)
// with state-patch exactness — the patched state is bit-identical to a
// fresh build plus replay of the edit history — and this file decides
// what the *session* keeps across the patch.  Value edits (retype,
// load) leave the DAG alone, so the flow network, constraint topology
// and solvers stay warm and only the arrival engine is repaired
// cone-locally (sta.SetDelays repropagates exactly the forward cone of
// the changed rows; arrivals outside it are untouched).  Structural
// edits (rewire) change the DAG, which the dcs constraint system cannot
// re-topologize in place, so the D-phase scratch is rebuilt; the
// trust-region seed (the previous converged sizing) survives either
// way, with the edit's critical-path and area-weight perturbation
// folded into the same ledger that gates seeding — unless the edit's
// timing cone exceeds Options.EditConeBudget, in which case the seed is
// dropped and the next Resize runs cold (EditReport.Fallback).
// Otherwise the next Resize is a warm refinement of the full circuit
// from the kept seed.
//
// Determinism: every decision here — cone size, budget comparison,
// perturbation folding — is a pure function of the session's served
// history (queries + edits), never of wall time, so the Session replay
// contract extends verbatim to histories containing edits: a twin
// session replaying the same sequence answers every query
// bit-identically.  Edit-then-Resize is additionally bit-identical to
// rebuild-then-Resize on a cold session (no prior queries): both sides
// hold bit-identical problem state by the exactness contract and both
// run the cold TILOS path (TestEcoEditResizeColdConformance).
package core

import (
	"errors"
	"math"

	"minflo/internal/dag"
)

// NewEcoSession builds a warm session over an editable netlist: a
// NewSession on e.P whose ApplyEdits patches the resident state in
// place.  The Eco (and its circuit) is owned by the session — callers
// must not mutate either directly.
func NewEcoSession(e *dag.Eco, opt Options) (*Session, error) {
	s, err := NewSession(e.P, opt)
	if err != nil {
		return nil, err
	}
	s.eco = e
	return s, nil
}

// EditReport describes one ApplyEdits outcome.
type EditReport struct {
	// Structural marks a batch containing a rewire: the problem's DAG
	// changed and was rebuilt.
	Structural bool
	// Rebuilt marks batches that rebuilt the D-phase scratch (flow
	// network, constraint system, solvers): every structural batch, and
	// value batches only when the cone-budget fallback fired.
	Rebuilt bool
	// Fallback marks a batch whose timing cone exceeded
	// Options.EditConeBudget: the trust-region seed was dropped and the
	// scratch rebuilt, so the next Resize runs the cold path.
	Fallback bool
	// SeedKept reports whether the trust-region seed survived.
	SeedKept bool
	// GateSetChanged marks a batch containing gate adds/removes: gate
	// indices remapped, resident sizes and the warm seed are void, and
	// the cone covers everything (ConeFrac is 1).
	GateSetChanged bool
	// ConeGates counts the sizable vertices inside the forward timing
	// cone of the edit (the vertices whose arrivals may move);
	// ConeFrac is that count over all sizable vertices.
	ConeGates int
	ConeFrac  float64
	// ChangedRows counts the delay-coefficient rows the batch touched.
	ChangedRows int
	// Deprecated: ConeResizePending no longer arms anything; the
	// cone-local re-size is gone.  It reads !Structural && SeedKept —
	// a value-only batch that kept the seed, whose next query answers
	// warm — because cmd/minflobench picks serve_eco's fast-path
	// samples by it.
	ConeResizePending bool
	// CP is the post-edit critical path at the session's current sizes
	// (the previous converged sizing, or minimum sizes before any).
	CP float64
}

// ApplyEdits applies a netlist edit batch to the resident state.  The
// batch is atomic: validation failures (unknown cell, arity mismatch,
// dangling driver, a rewire creating a cycle or leaving a gate driving
// nothing) return an error with the session bit-identical to never
// having received the batch.  On success the report describes what was
// invalidated and whether the next Resize still runs warm.
func (s *Session) ApplyEdits(edits []dag.Edit) (*EditReport, error) {
	if s.closed {
		return nil, errors.New("core: ApplyEdits on closed Session")
	}
	if s.eco == nil {
		return nil, errors.New("core: session has no editable netlist (use NewEcoSession)")
	}
	cpBefore := s.sc.arr.CP()
	// Current sizes: the seed when one exists, else minimum — captured
	// before the problem pointer can change under a structural rebuild.
	x := s.p.InitialSizes()
	if s.seedValid {
		copy(x, s.seedX)
	}

	delta, err := s.eco.Apply(edits)
	if err != nil {
		return nil, err
	}
	s.p = s.eco.P // identical pointer unless the batch was structural
	// The library's sizings were converged on the pre-batch netlist.
	s.clearLibrary()

	if delta.GateSetChanged {
		// Adds/removes remap gate indices: the captured sizes and the
		// warm seed are meaningless in the new index space.  Restart
		// the resident state from minimum sizes and invalidate the
		// seed regardless of any cone budget.
		x = s.p.InitialSizes()
		s.seedX = make([]float64, s.p.NumSizable)
		s.seedValid = false
	}

	// Forward timing cone of the edited vertices: the arrivals (and
	// hence the re-sizing pressure) outside it cannot move.  A gate-set
	// change has no per-row delta — the damage is honestly global.
	cone := s.p.NumSizable
	if !delta.GateSetChanged {
		reach := s.p.G.Reachable(delta.Seeds)
		cone = 0
		for v := 0; v < s.p.NumSizable; v++ {
			if reach[v] {
				cone++
			}
		}
	}
	rep := &EditReport{
		Structural:     delta.Structural,
		GateSetChanged: delta.GateSetChanged,
		ConeGates:      cone,
		ConeFrac:       float64(cone) / float64(max(1, s.p.NumSizable)),
		ChangedRows:    len(delta.ChangedRows),
	}
	rep.Fallback = s.opt.EditConeBudget > 0 && rep.ConeFrac > s.opt.EditConeBudget

	if delta.Structural || rep.Fallback {
		// The constraint system has no API to move constraint endpoints
		// (structural), and an over-budget cone invalidates most of the
		// warm flow state anyway: rebuild the D-phase scratch on the
		// current problem.
		s.aug = s.p.Augment()
		sc2, serr := newIterScratch(s.p, s.aug, x)
		if serr != nil {
			return nil, serr
		}
		s.sc = sc2
		rep.Rebuilt = true
	} else {
		// Cone-local arrival repair: recompute the changed rows' delays
		// at the current sizes and repropagate only their forward cone —
		// arrivals on the boundary and beyond stay frozen.
		csr := s.p.CSR()
		dv := make([]float64, len(delta.ChangedRows))
		for k, v := range delta.ChangedRows {
			dv[k] = csr.Delay(v, x[v], x)
		}
		s.sc.arr.SetDelays(delta.ChangedRows, dv)
	}

	if rep.Fallback {
		s.seedValid = false
	} else if s.seedValid {
		// The seed survives; fold the edit's perturbation — timing move
		// at the seed sizes, plus any area-weight change (retype, or a
		// structural rebuild resetting sticky weights) — into the same
		// ledger weight edits use, so the trust-region admission check
		// and the seeded window scaling see edits with no extra policy.
		rel := delta.MaxWRel
		if cpBefore > 0 {
			if r := math.Abs(s.sc.arr.CP()-cpBefore) / cpBefore; r > rel {
				rel = r
			}
		}
		if rel > s.seedWPerturb {
			s.seedWPerturb = rel
		}
	}
	rep.SeedKept = s.seedValid
	rep.ConeResizePending = !rep.Structural && rep.SeedKept
	rep.CP = s.sc.arr.CP()
	return rep, nil
}
