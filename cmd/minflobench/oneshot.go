package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"minflo"
	"minflo/internal/circuit"
	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/tech"
	"minflo/internal/tilos"
)

// model is the delay model of minflo.NewSizer(nil) and of minflod, which
// the benchmark uses to build its own copies of every problem.
var model = delay.NewModel(tech.Default013())

// config is one benchmark invocation.
type config struct {
	Seed    int64
	Window  time.Duration // measurement window per workload
	Setups  int           // set-ups per run; setup_s is their median
	Trace   bool
	Smoke   bool
	TraceTo string
}

// timeSetups runs setup cfg.Setups times and reports the median as
// setup_s; the state of the last run is the one measured.
func timeSetups(cfg config, r *report, setup func() error, teardown func()) error {
	var ts []float64
	for i := 0; i < cfg.Setups; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	r.E2E["setup_s"] = median(ts)
	return nil
}

// passStats fills the pass-based end-to-end metrics of a one-shot
// workload: its operation is one pass over the workload's circuits, and
// every sizing in it is a cold one, so p50_ms and cold_p50_ms agree.
func passStats(r *report, passes []float64) {
	var total float64
	for _, p := range passes {
		total += p
	}
	q1, med, q3 := quartiles(append([]float64(nil), passes...))
	r.E2E["p50_ms"] = med
	r.E2E["cold_p50_ms"] = med
	r.E2E["ops_per_s"] = float64(len(passes)) / (total / 1e3)
	r.note("passes n=%d, median %.1f ms (q1 %.1f, q3 %.1f), each %.0f ms", len(passes), med, q1, q3, passes)
}

// runTable1 drives the Table-1 suite through Sizer.RunTable, the harness
// behind `experiments -table1`.
func runTable1(cfg config, tr *tracer) (*report, error) {
	r := newReport(wTable1)
	var (
		in   []table1Job
		jobs []minflo.TableJob
		sz   *minflo.Sizer
	)
	if err := timeSetups(cfg, r, func() error {
		in = genTable1(cfg.Seed, cfg.Smoke)
		jobs = make([]minflo.TableJob, len(in))
		for i, j := range in {
			c, err := minflo.CircuitByName(j.Name)
			if err != nil {
				return err
			}
			jobs[i] = minflo.TableJob{Circuit: c, Spec: j.Spec}
		}
		var err error
		sz, err = minflo.NewSizer(&minflo.Config{FlowEngine: "dial"})
		return err
	}, nil); err != nil {
		return nil, err
	}

	mem := startMemSampler()
	allocs := readAllocs()
	var passes []float64
	var first []*minflo.TableRow
	for start := time.Now(); len(passes) == 0 || time.Since(start) < cfg.Window; {
		t0 := time.Now()
		rows, errs := sz.RunTable(jobs)
		passes = append(passes, ms(time.Since(t0)))
		r.Attempted += len(jobs)
		for i := range jobs {
			switch {
			case errs[i] != nil:
				r.fail("pass %d %s: %v", len(passes), in[i].Name, errs[i])
			case first == nil:
			case first[i] == nil || !sameRow(rows[i], first[i]):
				r.fail("pass %d %s: answer differs from pass 1", len(passes), in[i].Name)
			}
		}
		if first == nil {
			first = rows
		}
	}
	r.E2E["heap_peak_mb"] = mem.Stop()
	r.Layer["go.allocs_per_op"], r.Layer["go.alloc_kb_per_op"] = allocs.perOp(len(passes))
	passStats(r, passes)

	// Independent checks.  RunTable reports areas, not sizes, so each row
	// is sized again through core.Size with RunTable's per-job options
	// (deterministic, so it must reproduce the row bit for bit) and the
	// sizes are re-timed on a freshly built problem.
	opts := replicaOpts{Engine: "dial", Par: 1}
	ref := make([]*core.Result, len(in))
	var sumMF, sumTL float64
	var mu sync.Mutex
	forEachParallel(len(in), func(i int) {
		row := first[i]
		if row == nil {
			return
		}
		res, err := resizeRow(in[i], row, opts)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			r.fail("%s: %v", in[i].Name, err)
			return
		}
		ref[i] = res
		sumMF += row.MinfloArea
		sumTL += row.TilosArea
	})
	r.E2E["area_ratio"] = ratio(sumMF, sumTL)

	if cfg.Trace {
		traceTable1(r, tr, in, jobs, ref, median(passes))
	}
	return r, nil
}

// sameRow reports whether two passes answered a row identically.
func sameRow(a, b *minflo.TableRow) bool {
	return a != nil && b != nil && a.Iterations == b.Iterations &&
		math.Float64bits(a.MinfloArea) == math.Float64bits(b.MinfloArea) &&
		math.Float64bits(a.TilosArea) == math.Float64bits(b.TilosArea) &&
		math.Float64bits(a.DminPS) == math.Float64bits(b.DminPS)
}

// resizeRow re-derives one table row outside RunTable and checks it.
func resizeRow(job table1Job, row *minflo.TableRow, opts replicaOpts) (*core.Result, error) {
	p, err := buildProblem(job.Name, minflo.CircuitByName)
	if err != nil {
		return nil, err
	}
	dmin, err := minDelay(p)
	if err != nil {
		return nil, err
	}
	if dmin != row.DminPS {
		return nil, fmt.Errorf("Dmin %g, RunTable reported %g", dmin, row.DminPS)
	}
	T := job.Spec * dmin
	res, err := core.Size(p, T, opts.core())
	if err != nil {
		return nil, err
	}
	if res.Area != row.MinfloArea || res.TilosArea != row.TilosArea || res.Iterations != row.Iterations {
		return nil, fmt.Errorf("core.Size gives area %g / TILOS %g / %d iterations, RunTable %g / %g / %d",
			res.Area, res.TilosArea, res.Iterations, row.MinfloArea, row.TilosArea, row.Iterations)
	}
	fresh, err := buildProblem(job.Name, minflo.CircuitByName)
	if err != nil {
		return nil, err
	}
	return res, checkSizing(fresh, res.X, T, row.MinfloArea, row.TilosArea)
}

// buildProblem generates a circuit by name and builds its gate-sizing
// problem.
func buildProblem(name string, mk func(string) (*circuit.Circuit, error)) (*dag.Problem, error) {
	c, err := mk(name)
	if err != nil {
		return nil, err
	}
	return dag.GateLevel(c, model)
}

// forEachParallel runs f(0..n-1) on GOMAXPROCS workers, the fan-out
// RunTable uses.
func forEachParallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			f(i)
		}()
	}
	wg.Wait()
}

// traceTable1 is the traced pass of table1: RunTable's fan-out with the
// replica in place of each row's optimizer calls.
func traceTable1(r *report, tr *tracer, in []table1Job, jobs []minflo.TableJob, ref []*core.Result, untracedMs float64) {
	from := tr.next()
	agg := &layerAgg{}
	match := true
	var mu sync.Mutex
	t0 := time.Now()
	forEachParallel(len(jobs), func(i int) {
		root := tr.begin(spanOneShot, 0)
		defer tr.end(root)
		var p *dag.Problem
		err := tr.wrap(spanBuild, root, func() error {
			var err error
			p, err = dag.GateLevel(jobs[i].Circuit, model)
			return err
		})
		var dmin float64
		if err == nil {
			err = tr.wrap(spanAnalyze, root, func() error {
				var err error
				dmin, err = minDelay(p)
				return err
			})
		}
		T := jobs[i].Spec * dmin
		if err == nil {
			err = tr.wrap(spanBaseline, root, func() error {
				_, err := tilos.Size(p, T, nil, tilos.Options{Bump: 1.1})
				return err
			})
		}
		var rr *replicaResult
		if err == nil {
			rr, err = replicaSize(tr, root, p, T, replicaOpts{Engine: "dial", Par: 1})
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			r.note("trace: %s replica: %v", in[i].Name, err)
			match = false
			return
		}
		agg.add(rr)
		if !replicaMatches(rr, ref[i]) {
			r.note("trace: %s replica differs from core.Size", in[i].Name)
			match = false
		}
	})
	agg.finish(r, tr, from, ms(time.Since(t0)), untracedMs, match)
}

// runScaling sizes the large generated circuits one at a time through
// core.SizeCtx with the intra-run parallel paths on.
func runScaling(cfg config, tr *tracer) (*report, error) {
	r := newReport(wScaling)
	var (
		in   []scalingJob
		ckts []*circuit.Circuit
		Ts   []float64
	)
	if err := timeSetups(cfg, r, func() error {
		in = genScaling(cfg.Seed, cfg.Smoke)
		ckts = make([]*circuit.Circuit, len(in))
		Ts = make([]float64, len(in))
		for i, j := range in {
			c, err := scalingCircuit(j.Name)
			if err != nil {
				return err
			}
			p, err := dag.GateLevel(c, model)
			if err != nil {
				return err
			}
			dmin, err := minDelay(p)
			if err != nil {
				return err
			}
			ckts[i], Ts[i] = c, j.Frac*dmin
		}
		return nil
	}, nil); err != nil {
		return nil, err
	}

	opts := replicaOpts{Engine: "dial", Par: runtime.GOMAXPROCS(0)}
	mem := startMemSampler()
	allocs := readAllocs()
	var passes []float64
	var last, first []*core.Result
	for start := time.Now(); len(passes) == 0 || time.Since(start) < cfg.Window; {
		t0 := time.Now()
		last = make([]*core.Result, len(ckts))
		for i, c := range ckts {
			p, err := dag.GateLevel(c, model)
			if err == nil {
				last[i], err = core.SizeCtx(context.Background(), p, Ts[i], opts.core())
			}
			if err != nil {
				r.fail("pass %d %s: %v", len(passes)+1, in[i].Name, err)
			}
		}
		passes = append(passes, ms(time.Since(t0)))
		r.Attempted += len(ckts)
		if first == nil {
			first = last
			continue
		}
		for i := range last {
			if last[i] != nil && !sameResult(last[i], first[i]) {
				r.fail("pass %d %s: answer differs from pass 1", len(passes), in[i].Name)
			}
		}
	}
	r.E2E["heap_peak_mb"] = mem.Stop()
	r.Layer["go.allocs_per_op"], r.Layer["go.alloc_kb_per_op"] = allocs.perOp(len(passes))
	passStats(r, passes)

	var sumMF, sumTL float64
	for i, res := range last {
		if res == nil {
			continue
		}
		fresh, err := buildProblem(in[i].Name, scalingCircuit)
		if err == nil {
			err = checkSizing(fresh, res.X, Ts[i], res.Area, res.TilosArea)
		}
		if err != nil {
			r.fail("%s: %v", in[i].Name, err)
			continue
		}
		sumMF += res.Area
		sumTL += res.TilosArea
	}
	r.E2E["area_ratio"] = ratio(sumMF, sumTL)

	if cfg.Trace {
		from := tr.next()
		agg := &layerAgg{}
		match := true
		t0 := time.Now()
		for i, c := range ckts {
			root := tr.begin(spanOneShot, 0)
			var p *dag.Problem
			err := tr.wrap(spanBuild, root, func() error {
				var err error
				p, err = dag.GateLevel(c, model)
				return err
			})
			var rr *replicaResult
			if err == nil {
				rr, err = replicaSize(tr, root, p, Ts[i], opts)
			}
			tr.end(root)
			if err != nil {
				r.note("trace: %s replica: %v", in[i].Name, err)
				match = false
				continue
			}
			agg.add(rr)
			if !replicaMatches(rr, last[i]) {
				r.note("trace: %s replica differs from core.SizeCtx", in[i].Name)
				match = false
			}
		}
		agg.finish(r, tr, from, ms(time.Since(t0)), median(passes), match)
	}
	return r, nil
}

func sameResult(a, b *core.Result) bool {
	return b != nil && a.Iterations == b.Iterations &&
		math.Float64bits(a.Area) == math.Float64bits(b.Area) && sameBits(a.X, b.X)
}

// replicaMatches reports whether the traced replica reproduced the
// untraced answer bit for bit.
func replicaMatches(rr *replicaResult, ref *core.Result) bool {
	return ref != nil && rr.Iterations == ref.Iterations &&
		math.Float64bits(rr.Area) == math.Float64bits(ref.Area) &&
		math.Float64bits(rr.CP) == math.Float64bits(ref.CP) &&
		math.Float64bits(rr.TilosArea) == math.Float64bits(ref.TilosArea) &&
		sameBits(rr.X, ref.X)
}

// layerAgg sums the replica's work counters over a traced pass.
type layerAgg struct {
	iterations, repairs, clamped int
	solves, resolves, fallbacks  int
	visited, augmentations       int64
}

func (a *layerAgg) add(rr *replicaResult) {
	a.iterations += rr.Iterations
	a.repairs += rr.Repairs
	a.clamped += rr.Clamped
	a.solves += rr.Solves
	a.resolves += rr.Resolves
	a.fallbacks += rr.Fallbacks
	a.visited += rr.Visited
	a.augmentations += rr.Augmentations
}

// finish turns the spans recorded since span id from, plus the summed
// counters, into the per-layer metrics of a one-shot traced pass.
// wallMs is the traced pass's wall time and untracedMs the untraced one
// it is compared with.
func (a *layerAgg) finish(r *report, tr *tracer, from int, wallMs, untracedMs float64, match bool) {
	spans := tr.snapshot()
	self := selfByName(spans, from)
	sec := func(name string) float64 { return self[name].Seconds() }
	for _, m := range []string{spanBuild, spanBaseline, spanSeed, spanRepair, spanAnalyze, spanRetime,
		spanBalance, spanSens, spanDCS, spanSolve, spanResolve, spanWPhase} {
		r.Layer[m+"_s"] = sec(m)
	}
	loop := sec(spanSizing) + sec(spanOneShot)
	var roots float64
	for _, s := range spans[from-1:] {
		if s.Name == spanOneShot {
			roots += time.Duration(s.dur()).Seconds()
		}
	}
	r.Layer["core.loop_s"] = loop
	r.Layer["trace.coverage"] = 1 - ratio(loop, roots)
	r.Layer["trace.overhead_pct"] = 100 * (wallMs - untracedMs) / untracedMs
	r.Layer["core.iterations"] = float64(a.iterations)
	r.Layer["tilos.repairs"] = float64(a.repairs)
	r.Layer["smp.clamped"] = float64(a.clamped)
	r.Layer["mcmf.solves"] = float64(a.solves)
	r.Layer["mcmf.resolves"] = float64(a.resolves)
	r.Layer["mcmf.full_fallbacks"] = float64(a.fallbacks)
	r.Layer["mcmf.resolve_hit"] = ratio(float64(a.resolves), float64(a.resolves+a.fallbacks))
	r.Layer["mcmf.visited"] = float64(a.visited)
	r.Layer["mcmf.augmentations"] = float64(a.augmentations)
	if match {
		r.Layer["trace.replica_match"] = 1
	} else {
		r.Layer["trace.replica_match"] = 0
		r.note("trace: replica does not reproduce the untraced answers; per-layer numbers are stale")
	}
}
