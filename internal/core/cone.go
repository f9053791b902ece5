// Cone-local ECO re-sizing (Options.EditConeResize): answer the Resize
// after a value-only edit batch from a cone-scoped subproblem instead
// of the full circuit, so edit→re-size latency scales with the cone,
// not the netlist.
//
// The pipeline: ApplyEdits arms the pending cone (the edit seeds);
// Resize, when the query sits inside the trust region, extracts the
// cone against frozen boundary timing (dag.ExtractCone — virtual PIs
// carry the boundary's frozen finish times, pads its frozen required
// arrivals), runs the full D/W loop on the subproblem warm-seeded from
// the resident sizing, and merges the cone's answer back.  The frozen
// boundary is an approximation — ring gates couple to frozen
// out-of-cone rows — so a deterministic reconciliation re-times the
// whole graph at the merged sizes: a missed target widens the cone by
// one fanin layer and retries once, then falls back to the full warm
// re-size.  Every decision (membership, widening, fallback) is a pure
// function of the session's served history, so the replay-determinism
// contract — a twin replaying the same sequence answers bit-identically
// — extends to cone-answered queries.
package core

import (
	"errors"

	"minflo/internal/tilos"
)

// errConeBoundary reports (internally) that a cone solve converged but
// the full-graph reconciliation missed the target: boundary arrivals
// drifted beyond what the frozen terminals promised (a ring gate's
// resize moved an out-of-cone driver's delay, or an out-of-cone gate
// coupled into the ring).
var errConeBoundary = errors.New("core: cone boundary reconciliation failed")

// resizeCone answers a Resize from the cone around the armed edit
// seeds.  Returns errSeedRejected when the full warm path should take
// over (Resize marks the answer's Result.ConeFallback).
func (s *Session) resizeCone(seeds []int, T float64) (*Result, error) {
	p := s.p
	// Frozen state: the resident seed sizes and their full-graph finish
	// times.  The retime is idempotent when the arrival engine already
	// sits at the seed (the common case after ApplyEdits' cone repair).
	x := append([]float64(nil), s.seedX...)
	s.sc.retime(p, x)
	finish := s.sc.arr.AppendFinish(nil)

	// Membership: forward cone of the edit, grown backward over the
	// vertices the new target forces to speed up — freezing those out
	// makes the cone shoulder repairs a full re-size would spread
	// across the whole violated path, which is where the cone-vs-full
	// area gap comes from.
	members := p.ConeMembersTimed(seeds, x, finish, T)
	// A cone covering most of the circuit solves nearly the full
	// problem plus extraction overhead — no win to chase.
	if 2*len(members) > p.NumSizable {
		return nil, errSeedRejected
	}

	res, err := s.coneAttempt(members, x, finish, T)
	if errors.Is(err, errConeBoundary) {
		// Deterministic reconciliation: widen once (members ∪ their
		// fanins, re-closed), then give up on the cone.
		members = p.WidenMembers(members)
		if 2*len(members) > p.NumSizable {
			return nil, errSeedRejected
		}
		res, err = s.coneAttempt(members, x, finish, T)
	}
	if errors.Is(err, errConeBoundary) || errors.Is(err, errSeedRejected) {
		return nil, errSeedRejected
	}
	if err == nil && res != nil {
		// Boundary refinement (one Gauss–Seidel sweep): the first pass
		// solved against arrivals frozen BEFORE the cone moved, so once
		// in-cone ancestors speed up, re-entrant virtual-PI arrivals are
		// stale-pessimistic and the merged answer carries slack it could
		// not sell.  Re-extract against the merged timing (coneAttempt
		// left the arrival engine at res.X) and re-solve seeded from the
		// merged sizes; keep the refinement only when it is feasible and
		// strictly cheaper.  Aborts surface with the pass-1 answer as
		// the best-so-far partial, per the Resize contract.
		finish2 := s.sc.arr.AppendFinish(nil)
		// Membership is recomputed at the merged timing: the first pass
		// may have exposed macroscopic slack in a region it could not
		// touch, and the freed-slack recruitment only sees that region
		// once the new finish times are in.
		members2 := p.ConeMembersTimed(seeds, res.X, finish2, T)
		if 2*len(members2) > p.NumSizable {
			return res, err
		}
		res2, err2 := s.coneAttempt(members2, res.X, finish2, T)
		switch {
		case err2 == nil && res2 != nil && res2.Area < res.Area:
			res2.Iterations += res.Iterations
			res = res2
		case err2 != nil && (isAbortErr(err2) || errors.Is(err2, ErrEngineFailed)):
			res.Partial = true
			return res, err2
		}
	}
	return res, err
}

// coneAttempt extracts, solves and reconciles one cone.  On success the
// returned Result is in full-problem coordinates (merged sizes,
// full-graph CP and area) and the arrival engine sits at its sizes.
// errConeBoundary asks for a widened retry, errSeedRejected for the
// full warm fallback; abort errors return the merged best-so-far as a
// partial Result per the Resize contract.
func (s *Session) coneAttempt(members []int, xFull, finish []float64, T float64) (*Result, error) {
	out, err := s.coneSolve(members, xFull, finish, T)
	if err != nil || out.CP <= T*(1+1e-9) {
		return out, err
	}
	if out.CP > T*(1+coneDriftTol) {
		// A real miss — typically the cone slowed a gate whose arrival
		// a re-entrant out-of-cone path depends on, beyond what the
		// frozen virtual-PI arrivals promised.  Patching it with greedy
		// full-graph TILOS bumps costs measurably more area than a
		// wider cone's balanced answer: escalate.
		return nil, errConeBoundary
	}
	// Micro-drift: re-sized ring gates perturbed out-of-cone rows
	// coupled to them (delay(i) includes a_ij·x_j for in-cone fanouts
	// j), so the full graph lands a hair past T even though the cone
	// met its own target.  First re-solve the cone against a target
	// shaved by twice the drift, which absorbs it at the price of the
	// drift's own worth of slack.  A TILOS bump is a whole size step:
	// on a deep mesh two of them overshot by 0.05% of T, slack no later
	// cone answer sold, and the next edit's freed-slack recruitment
	// then took the whole circuit.
	shaved, serr := s.coneSolve(members, xFull, finish, T-2*(out.CP-T))
	switch {
	case serr == nil && shaved.CP <= T*(1+1e-9):
		shaved.Iterations += out.Iterations
		return shaved, nil
	case serr != nil && (isAbortErr(serr) || errors.Is(serr, ErrEngineFailed)):
		// Cut short: the re-solve's merged best-so-far, or the first
		// pass's answer when the re-solve had none yet, is the partial.
		if shaved == nil {
			out.Partial = true
			return out, serr
		}
		shaved.Iterations += out.Iterations
		return shaved, serr
	}
	if shaved != nil {
		out.Iterations += shaved.Iterations
	}
	// The shaved cone drifted past T as well (its tighter target moves
	// more ring gates; on c7552 load edits about half the re-solves do).
	// Repair with TILOS moves from the first answer's sizes — the same
	// deterministic repair a violating warm seed gets — and escalate
	// only if even that misses.
	xm := out.X
	s.sc.retime(s.p, xm)
	tr, terr := tilos.SizeWith(s.p, T, xm, s.opt.Tilos, s.sc.arr, s.sc.dBase)
	if terr != nil {
		return nil, errConeBoundary
	}
	out.X = tr.X
	out.CP = s.sc.retime(s.p, out.X)
	out.Area = s.p.Area(out.X)
	if out.CP > T*(1+1e-9) {
		return nil, errConeBoundary
	}
	return out, nil
}

// coneSolve extracts the cone against target Tc, solves it warm from
// the resident sizing, merges the answer and re-times the full graph
// at the merged sizes (the arrival engine stays there).
// errSeedRejected asks for the full warm fallback; abort errors return
// the merged best-so-far as a partial Result.
func (s *Session) coneSolve(members []int, xFull, finish []float64, Tc float64) (*Result, error) {
	p := s.p
	cone, err := p.ExtractCone(members, xFull, finish, Tc)
	if err != nil {
		return nil, errSeedRejected
	}
	subOpt := s.opt
	subOpt.EditConeResize = false
	sub, err := NewSession(cone.Sub, subOpt)
	if err != nil {
		return nil, errSeedRejected
	}
	// Inject the warm seed — the cone's slice of the resident sizing at
	// the same target — and the parent's EWMA so the blowout gate
	// judges the cone against the session's usual iteration counts.
	copy(sub.seedX, cone.SeedSizes(xFull))
	sub.seedT = Tc
	sub.seedValid = true
	// The edit's perturbation (folded into the parent's trust-region
	// ledger by ApplyEdits) sizes the sub-solve's budget window: with it
	// left at zero the window opens at the floor and the greedy TILOS
	// repair of the violated seed is never walked back — measured ~1%
	// area above the cone's own restricted optimum.
	sub.seedWPerturb = s.seedWPerturb
	sub.ewmaIters, sub.ewmaSeeded = s.ewmaIters, s.ewmaSeeded
	// Thread the parent's abort sources.  The flow-work budget stays
	// disarmed: its cumulative counter belongs to the parent's system.
	sub.sc.ctx = s.sc.ctx
	sub.sc.deadline = s.sc.deadline

	subRes, serr := sub.resizeSeeded(Tc)
	if serr != nil && !isAbortErr(serr) && !errors.Is(serr, ErrEngineFailed) {
		// errSeedRejected or a numerical corner: the cone could not
		// refine from the resident sizing.
		return nil, errSeedRejected
	}
	if subRes == nil {
		return nil, serr
	}
	// Merge into the full vector and reconcile.  The authoritative
	// check is the full-graph re-time at the merged sizes — it sees
	// every residual coupling the frozen boundary approximated away.
	xm := append([]float64(nil), xFull...)
	cone.MergeSizes(xm, subRes.X)
	cp := s.sc.retime(p, xm)
	for k := range subRes.Stats {
		subRes.Stats[k].Seed = SeedCone
	}
	out := &Result{
		X:          xm,
		Area:       p.Area(xm),
		CP:         cp,
		Iterations: subRes.Iterations,
		Stats:      subRes.Stats,
		Seed:       SeedCone,
		ConeGates:  len(members),
	}
	if serr != nil {
		// Abort or engine failure mid-cone: the merged best-so-far
		// answer with the typed error, per the Resize contract.
		out.Partial = true
		return out, serr
	}
	return out, nil
}

// coneDriftTol separates repairable micro-drift (residual ring→row
// coupling: the merged sizes land within a hair of the target, and a
// cone re-solve against a shaved target or a few TILOS bumps close it)
// from a real reconciliation miss that needs a wider cone.  Relative
// to the target.
const coneDriftTol = 5e-4
