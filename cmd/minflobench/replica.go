package main

import (
	"errors"
	"fmt"
	"math"

	"minflo/internal/balance"
	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/dcs"
	"minflo/internal/lin"
	"minflo/internal/par"
	"minflo/internal/smp"
	"minflo/internal/sta"
	"minflo/internal/tilos"
)

// The traced replica re-runs internal/core's cold sizing path — the one
// core.SizeCtx takes: session build, TILOS seed from minimum sizes, then
// the D/W loop — through the public functions of the layers core calls,
// in core's order, with a span around each call.  The benchmark cannot
// see inside core, so this is how it attributes a sizing run's wall time
// to layers.  Every answer is compared bit for bit with the untraced
// core result; when core's algorithm moves away from this copy the
// comparison fails and the per-layer numbers are reported as stale
// (trace.replica_match = 0) while the end-to-end numbers stand.

// Defaults of core.Options as of the replica's writing (core keeps them
// unexported).
const (
	coreWindow   = 0.1
	coreMaxIters = 100
	corePatience = 5
	coreAreaTol  = 1e-4
)

// Layer span names.  A run's self time outside these is core's own loop
// bookkeeping, reported as core.loop_s.
const (
	spanBuild     = "dag.build"
	spanBaseline  = "tilos.baseline"
	spanSeed      = "tilos.seed"
	spanRepair    = "tilos.repair"
	spanAnalyze   = "sta.analyze"
	spanRetime    = "sta.retime"
	spanBalance   = "balance.balance"
	spanSens      = "lin.sens"
	spanDCS       = "dcs.setup"
	spanSolve     = "mcmf.solve"
	spanResolve   = "mcmf.resolve"
	spanWPhase    = "smp.wphase"
	spanSizing    = "core.size" // one sizing run; its self time is the loop glue
	spanOneShot   = "oneshot"   // one table row or circuit: build, Dmin, baseline, sizing
	spanHTTPQuery = "serve.query"
	spanHTTPEdit  = "serve.edit"
	spanTwinQuery = "core.resize"
	spanTwinEdit  = "core.apply_edits"
)

// replicaOpts are the core.Options fields the cold path reads; the rest
// stay at their zero values in every caller the benchmark replicates.
type replicaOpts struct {
	Engine string
	Par    int
}

func (o replicaOpts) core() core.Options {
	return core.Options{FlowEngine: o.Engine, Parallelism: o.Par}
}

// replicaResult is a replica sizing plus the work counters gathered at
// the layer boundaries.
type replicaResult struct {
	X          []float64
	Area, CP   float64
	Iterations int
	TilosArea  float64

	Repairs, Clamped            int
	Solves, Resolves, Fallbacks int
	Visited, Augmentations      int64
}

// replicaSize sizes p to target T the way core.SizeCtx(ctx, p, T,
// o.core()) does, recording spans under parent.
func replicaSize(tr *tracer, parent int, p *dag.Problem, T float64, o replicaOpts) (*replicaResult, error) {
	run := tr.begin(spanSizing, parent)
	defer tr.end(run)
	res := &replicaResult{}
	span := func(name string, f func() error) error { return tr.wrap(name, run, f) }

	// Session build (core.NewSession + newIterScratch).
	var aug *dag.Augmented
	if err := span(spanBuild, func() error {
		if err := p.Validate(); err != nil {
			return err
		}
		aug = p.Augment()
		return nil
	}); err != nil {
		return nil, err
	}
	n := p.NumSizable
	var (
		balancer *balance.Balancer
		wph      *smp.Solver
		sens     *lin.Solver
		analyzer *sta.Analyzer
		arr      *sta.Arrivals
		sys      *dcs.System
	)
	dAug := make([]float64, aug.G.N())
	dBase := make([]float64, p.G.N())
	budgets := make([]float64, n)
	minD := make([]float64, n)
	newBudget := make([]float64, n)
	C := make([]float64, n)
	newX := make([]float64, n)
	allV := make([]int, p.G.N())
	for v := range allV {
		allV[v] = v
	}
	loID, hiID, objID := make([]int, n), make([]int, n), make([]int, n)
	edgeID := make([]int, aug.G.M())
	selfEdge := make([]bool, aug.G.M())

	_ = span(spanBalance, func() error { balancer = balance.NewBalancer(aug.G); return nil })
	_ = span(spanWPhase, func() error { wph = smp.NewSolver(p.CSR()); return nil })
	_ = span(spanSens, func() error { sens = lin.NewSolver(p.CSR()); return nil })
	if err := span(spanAnalyze, func() error {
		var err error
		if analyzer, err = sta.NewAnalyzer(aug.G); err != nil {
			return err
		}
		arr, err = sta.NewArrivals(p.G, p.DelaysInto(dBase, p.InitialSizes()))
		return err
	}); err != nil {
		return nil, err
	}
	_ = span(spanDCS, func() error {
		sys = dcs.NewSystem(aug.G.N())
		for _, pi := range p.PIs {
			sys.Pin(pi)
		}
		sys.Pin(p.Sink)
		for i := 0; i < n; i++ {
			dm := aug.DmyOf[i]
			selfEdge[aug.SelfEdge[i]] = true
			loID[i] = sys.AddConstraint(i, dm, 0)
			hiID[i] = sys.AddConstraint(dm, i, 0)
			objID[i] = sys.AddObjective(dm, i, 0)
		}
		for _, e := range aug.G.Edges() {
			if selfEdge[e.ID] {
				edgeID[e.ID] = -1
				continue
			}
			edgeID[e.ID] = sys.AddConstraint(e.From, e.To, 0)
		}
		return nil
	})
	var pool *par.Pool
	if o.Par > 1 {
		pool = par.New(o.Par)
		defer pool.Close()
		wph.SetParallel(pool)
		sens.SetParallel(pool)
	}
	retime := func(x []float64) float64 {
		var cp float64
		_ = span(spanRetime, func() error {
			arr.SetDelays(allV, p.DelaysInto(dBase, x))
			cp = arr.CP()
			return nil
		})
		return cp
	}

	// Cold start (Session.resizeCold): TILOS from minimum sizes on the
	// resident arrival engine.
	var x []float64
	if err := span(spanSeed, func() error {
		seed, err := tilos.SizeWith(p, T, nil, tilos.Options{}, arr, dBase)
		if err != nil {
			if errors.Is(err, tilos.ErrInfeasible) {
				return fmt.Errorf("%w: %v", core.ErrInfeasible, err)
			}
			return err
		}
		x = seed.X
		res.TilosArea = seed.Area
		return nil
	}); err != nil {
		return nil, err
	}

	// One D-phase + W-phase round (core's iterate); leaves the round's
	// sizes in newX and returns their area.
	iterate := func(x []float64, window float64) (float64, error) {
		var d []float64
		var tm *sta.Timing
		if err := span(spanAnalyze, func() error {
			d = aug.DelaysInto(dAug, x)
			var err error
			tm, err = analyzer.AnalyzeCtx(nil, d)
			return err
		}); err != nil {
			return 0, err
		}
		if tm.CP > T*(1+1e-9) {
			return 0, fmt.Errorf("entering D-phase with infeasible CP %g > %g", tm.CP, T)
		}
		slackToTarget := T - tm.CP
		var cfg *balance.Config
		if err := span(spanBalance, func() error {
			var err error
			if cfg, err = balancer.Balance(d, tm, balance.ALAP); err != nil {
				return err
			}
			for _, e := range aug.G.In(aug.Base.Sink) {
				cfg.FSDU[e] += slackToTarget
			}
			return nil
		}); err != nil {
			return 0, err
		}
		if err := span(spanSens, func() error {
			copy(budgets, d[:n])
			return sens.SensitivitiesInto(C, x, budgets, p.AreaW)
		}); err != nil {
			return 0, err
		}
		csr := p.CSR()
		_ = span(spanDCS, func() error {
			for i := 0; i < n; i++ {
				selfF := cfg.FSDU[aug.SelfEdge[i]]
				maxD := window * d[i]
				if maxD < selfF {
					maxD = selfF
				}
				lo := csr.FloorAt(i, x, p.MaxSize) - d[i]
				if w := -window * d[i]; w > lo {
					lo = w
				}
				if lo > 0 {
					lo = 0
				}
				minD[i] = lo
				sys.SetWeight(loID[i], selfF-lo)
				sys.SetWeight(hiID[i], maxD-selfF)
				sys.SetObjectiveCoeff(objID[i], C[i])
			}
			for _, e := range aug.G.Edges() {
				if id := edgeID[e.ID]; id >= 0 {
					sys.SetWeight(id, cfg.FSDU[e.ID])
				}
			}
			return nil
		})
		before := sys.FlowEngineStats()
		solveStart := tr.begin(spanSolve, run)
		sol, err := sys.SolveCtx(nil, dcs.Options{Engine: o.Engine, Parallelism: max(o.Par, 1), EngineFallback: true})
		tr.end(solveStart)
		after := sys.FlowEngineStats()
		if after.Resolves > before.Resolves {
			tr.rename(solveStart, spanResolve)
			res.Resolves++
		} else {
			res.Solves++
		}
		res.Fallbacks += after.FullFallbacks - before.FullFallbacks
		res.Visited += counterDelta(after.Visited, before.Visited)
		res.Augmentations += counterDelta(after.Augmentations, before.Augmentations)
		if err != nil {
			return 0, fmt.Errorf("D-phase: %w", err)
		}
		for i := 0; i < n; i++ {
			dd := cfg.FSDU[aug.SelfEdge[i]] + sol.R[aug.DmyOf[i]] - sol.R[i]
			if dd < minD[i] {
				dd = minD[i]
			}
			newBudget[i] = d[i] + dd
			if m := csr.Self[i] * (1 + 1e-9); newBudget[i] <= m {
				newBudget[i] = m + 1e-12
			}
		}
		if err := span(spanWPhase, func() error {
			w, err := wph.SolveInto(newX, newBudget, p.MinSize, p.MaxSize, smp.Options{})
			if err == nil {
				res.Clamped += len(w.Clamped)
			}
			return err
		}); err != nil {
			return 0, fmt.Errorf("W-phase: %w", err)
		}
		if cp := retime(newX); cp > T*(1+1e-9) {
			if err := span(spanRepair, func() error {
				fix, err := tilos.SizeWith(p, T, newX, tilos.Options{}, arr, dBase)
				if err != nil {
					return err
				}
				copy(newX, fix.X)
				return nil
			}); err != nil {
				return 0, fmt.Errorf("repair failed: %w", err)
			}
			res.Repairs++
			retime(newX)
		}
		return p.Area(newX), nil
	}

	// The D/W loop (Session.dwLoop on the cold schedule).
	bestX := append([]float64(nil), x...)
	bestArea := p.Area(x)
	window := coreWindow
	noImprove := 0
	x = append([]float64(nil), x...)
	for it := 1; it <= coreMaxIters; it++ {
		area, err := iterate(x, window)
		if err != nil {
			if errors.Is(err, core.ErrEngineFailed) {
				return nil, err
			}
			break // core keeps the best answer so far
		}
		res.Iterations = it
		if area < bestArea*(1-coreAreaTol) {
			bestArea = area
			copy(bestX, newX)
			copy(x, newX)
			noImprove = 0
			if window < coreWindow {
				window = math.Min(coreWindow, window*1.5)
			}
		} else {
			if area < bestArea {
				bestArea = area
				copy(bestX, newX)
				copy(x, newX)
			} else {
				copy(x, bestX)
			}
			window /= 2
			noImprove++
			if noImprove >= corePatience || window < coreWindow/32 {
				break
			}
		}
		if window < coreWindow/32 {
			break
		}
	}
	res.X = bestX
	res.Area = bestArea
	res.CP = retime(bestX)
	return res, nil
}

// counterDelta is after − before for a work counter that a solver
// reset may zero in between.
func counterDelta(after, before int64) int64 {
	if after < before {
		return after
	}
	return after - before
}
