package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"minflo"
	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/serve"
	"minflo/internal/tilos"
)

// minflod's defaults (cmd/minflod): ssp engine, -j 1, trust region 0.05.
const (
	daemonEngine      = "ssp"
	daemonTrustRegion = 0.05
)

// opRecord is one request a serve client sent, with what came back.
type opRecord struct {
	Session int
	Anchor  bool // a set-up query, not measured
	Edit    bool
	Gate    int
	LoadFF  float64
	T       float64
	Start   time.Time
	Lat     time.Duration
	Err     error
	Q       *serve.QueryResponse
	E       *serve.EditResponse
	Jump    bool // a refine query planned to leave the trust region
	Armed   bool // the session had a cone re-size pending (serve_eco)
}

// serveEnv is a running in-process minflod with its clients' state.
type serveEnv struct {
	workload  string
	srv       *serve.Server
	hs        *http.Server
	served    chan error
	tp        *http.Transport
	cl        *serve.Client
	plans     []clientPlan
	dmin      map[string]float64
	ids       [][]string
	recs      [][]opRecord
	exhausted []bool // a client issued its whole script before the window ended
	elapsed   time.Duration
}

func runServe(workload string) func(config, *tracer) (*report, error) {
	return func(cfg config, tr *tracer) (*report, error) { return serveWorkload(workload, cfg, tr) }
}

// maxOpsPerSecond bounds how many requests one closed-loop client can
// issue per second; scripts are generated this long.
const maxOpsPerSecond = 1000

func serveWorkload(workload string, cfg config, tr *tracer) (*report, error) {
	r := newReport(workload)
	var env *serveEnv
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	if err := timeSetups(cfg, r, func() error {
		var err error
		env, err = startServe(workload, cfg, r)
		return err
	}, func() { env.close(); env = nil }); err != nil {
		return nil, err
	}

	mem := startMemSampler()
	allocs := readAllocs()
	env.drive(cfg.Window)
	r.E2E["heap_peak_mb"] = mem.Stop()
	ops := 0
	for _, recs := range env.recs {
		for _, rec := range recs {
			if !rec.Anchor {
				ops++
			}
		}
	}
	r.Layer["go.allocs_per_op"], r.Layer["go.alloc_kb_per_op"] = allocs.perOp(ops)
	st, err := env.cl.Stats(context.Background())
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	r.Layer["serve.rejected"] = float64(st.Rejected)
	r.Layer["serve.coalesced"] = float64(st.Coalesced)
	if st.Rejected > 0 {
		r.note("server rejected %d requests", st.Rejected)
	}
	env.close()
	env.summarize(r)
	env.verify(r)
	if cfg.Trace {
		env.trace(r, tr)
	}
	env = nil
	return r, nil
}

// startServe generates the clients' scripts, starts minflod on a
// loopback listener, submits every session and sends its anchor query.
func startServe(workload string, cfg config, r *report) (*serveEnv, error) {
	env := &serveEnv{workload: workload, dmin: map[string]float64{}, served: make(chan error, 1)}
	cones := map[string][]int{}
	for _, sessions := range serveSessions(workload, cfg.Smoke) {
		for _, name := range sessions {
			if _, ok := env.dmin[name]; ok {
				continue
			}
			p, err := buildProblem(name, minflo.CircuitByName)
			if err != nil {
				return nil, err
			}
			if env.dmin[name], err = minDelay(p); err != nil {
				return nil, err
			}
			if workload == wServeEco {
				cones[name] = coneSizes(p)
			}
		}
	}
	maxOps := int(cfg.Window.Seconds()*maxOpsPerSecond) + 100
	env.plans = genServe(workload, cfg.Seed, cfg.Smoke, maxOps, func(n string) []int { return cones[n] })

	srv, err := serve.New(serve.Config{
		Engine:         daemonEngine,
		TrustRegion:    daemonTrustRegion,
		EditConeResize: workload == wServeEco,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.srv = srv
	env.hs = &http.Server{Handler: srv.Handler()}
	go func() { env.served <- env.hs.Serve(ln) }()
	// One connection per client: the load is len(plans) closed loops.
	env.tp = &http.Transport{MaxIdleConnsPerHost: len(env.plans), MaxConnsPerHost: len(env.plans)}
	env.cl = serve.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: env.tp})
	env.cl.MaxRetries = 0 // a refused request is a failure, not a retry

	ctx := context.Background()
	env.ids = make([][]string, len(env.plans))
	env.recs = make([][]opRecord, len(env.plans))
	for ci, plan := range env.plans {
		for s, name := range plan.Sessions {
			id := fmt.Sprintf("c%d-s%d-%s", ci, s, name)
			env.ids[ci] = append(env.ids[ci], id)
			sub, err := env.cl.Submit(ctx, &serve.SubmitRequest{ID: id, Circuit: name})
			if err != nil {
				env.close()
				return nil, fmt.Errorf("submit %s: %w", name, err)
			}
			if sub.MinDelayPS != env.dmin[name] {
				r.fail("%s: server Dmin %g, benchmark %g", id, sub.MinDelayPS, env.dmin[name])
			}
			rec := env.query(ci, s, plan.Anchor[s]*env.dmin[name], true)
			rec.Anchor = true
			if rec.Err != nil {
				env.close()
				return nil, fmt.Errorf("anchor query %s: %w", id, rec.Err)
			}
			env.recs[ci] = append(env.recs[ci], rec)
		}
	}
	return env, nil
}

// close stops the server and waits for it; idempotent.
func (env *serveEnv) close() {
	if env.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = env.srv.Shutdown(ctx)
	_ = env.hs.Shutdown(ctx)
	<-env.served
	env.tp.CloseIdleConnections()
	env.hs = nil
}

func (env *serveEnv) query(ci, s int, T float64, sizes bool) opRecord {
	rec := opRecord{Session: s, T: T, Start: time.Now()}
	rec.Q, rec.Err = env.cl.Query(context.Background(), env.ids[ci][s], &serve.QueryRequest{TargetPS: T, WantSizes: sizes})
	rec.Lat = time.Since(rec.Start)
	return rec
}

// drive runs every client's script as a closed loop for the window.
func (env *serveEnv) drive(window time.Duration) {
	start := time.Now()
	deadline := start.Add(window)
	env.exhausted = make([]bool, len(env.plans))
	var wg sync.WaitGroup
	for ci := range env.plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan := env.plans[ci]
			defer func() { env.exhausted[ci] = time.Now().Before(deadline) }()
			armed := make([]bool, len(plan.Sessions))
			for _, op := range plan.Ops {
				if !time.Now().Before(deadline) {
					return
				}
				name := plan.Sessions[op.Session]
				if !op.Edit {
					rec := env.query(ci, op.Session, op.Frac*env.dmin[name], op.WantSizes)
					rec.Jump = op.Jump
					rec.Armed = armed[op.Session]
					armed[op.Session] = false
					env.recs[ci] = append(env.recs[ci], rec)
					continue
				}
				rec := opRecord{Session: op.Session, Edit: true, Gate: op.Gate, LoadFF: op.LoadFF, Start: time.Now()}
				rec.E, rec.Err = env.cl.Edit(context.Background(), env.ids[ci][op.Session], &serve.EditRequest{
					Edits: []serve.EditOp{{Op: "load", Gate: op.Gate, LoadFF: op.LoadFF}},
				})
				rec.Lat = time.Since(rec.Start)
				if rec.Err == nil {
					armed[op.Session] = rec.E.ConeResizePending
				}
				env.recs[ci] = append(env.recs[ci], rec)
			}
		}()
	}
	wg.Wait()
	env.elapsed = time.Since(start)
}

// summarize computes the end-to-end metrics.  serve_refine's operation
// is a query: its fast path the refinement steps the trust region
// answers warm, its cold path the jumps out of it.  serve_eco's
// operation is an edit and the query after it: its fast path the cycles
// whose edit armed a cone-local re-size (answered from the cone or, when
// the cone's boundary does not hold, by the full warm fallback), its
// cold path the cycles answered from a TILOS restart.  Each path is
// summarized per session and the sessions' medians combined by
// geometric mean: sessions on different circuits answer at different
// speeds, and a median of pooled samples would land wherever the run's
// mix of fast and slow sessions put it.
func (env *serveEnv) summarize(r *report) {
	var fast, cold pathStats
	nOps, base := 0, 0            // base: index of the client's first session
	lat := map[string][]float64{} // pooled per answer path, for the notes
	for ci, recs := range env.recs {
		for k, rec := range recs {
			r.Attempted++
			if rec.Anchor {
				continue // set-up, not measured; verify checks its answer
			}
			if rec.Err != nil {
				r.fail("%s request: %v", env.workload, rec.Err)
				continue
			}
			if rec.Edit {
				lat["edit"] = append(lat["edit"], ms(rec.Lat))
				continue
			}
			path := rec.Q.Seed // the answer path: the start point the solve took
			lat[path] = append(lat[path], ms(rec.Lat))
			op := ms(rec.Lat)
			if env.workload == wServeEco {
				prev := recs[k-1]
				if !prev.Edit || prev.Err != nil {
					continue
				}
				op += ms(prev.Lat)
			}
			nOps++
			eco := env.workload == wServeEco
			switch {
			case eco && rec.Armed || !eco && !rec.Jump:
				fast.add(base+rec.Session, op)
			case eco && path == core.SeedTilos || !eco && rec.Jump:
				cold.add(base+rec.Session, op)
			}
		}
		base += len(env.plans[ci].Sessions)
	}
	r.E2E["p50_ms"] = fast.p50(r, "fast path")
	r.E2E["cold_p50_ms"] = cold.p50(r, "cold path")
	r.E2E["ops_per_s"] = float64(nOps) / env.elapsed.Seconds()
	r.note("ops n=%d in %.1f s", nOps, env.elapsed.Seconds())
	for ci, done := range env.exhausted {
		if done {
			r.note("client %d ran out of script before the window ended", ci)
		}
	}
	for _, pq := range []struct {
		path string
		ps   []float64
	}{{core.SeedWarm, []float64{50, 99}}, {core.SeedTilos, []float64{50, 90}}, {core.SeedCone, []float64{50, 90}}, {"edit", []float64{50, 95}}} {
		for _, p := range pq.ps {
			q := percentile(lat[pq.path], p)
			if q.OK || p == 50 && q.N > 0 {
				r.note("%s p%g %.3f ms (n=%d)", pq.path, p, q.Value, q.N)
			} else if q.N > 0 {
				r.note("%s %s", pq.path, q.Reason())
			}
		}
	}
}

// pathStats holds one answer path's latencies, per session.
type pathStats [][]float64

func (ps *pathStats) add(session int, v float64) {
	for len(*ps) <= session {
		*ps = append(*ps, nil)
	}
	(*ps)[session] = append((*ps)[session], v)
}

// p50 is the geometric mean of the sessions' medians.  A session's
// median counts only when at least minBeyond samples lie on each side of
// it; when no session has that many (a short run), the median of all
// samples stands in.
func (ps pathStats) p50(r *report, label string) float64 {
	var meds, all []float64
	for _, xs := range ps {
		all = append(all, xs...)
		if q := percentile(xs, 50); q.OK {
			meds = append(meds, q.Value)
		}
	}
	if len(meds) == 0 {
		q := percentile(all, 50)
		r.note("%s: no session has %d samples on each side of its median; median of all %d samples", label, minBeyond, q.N)
		return q.Value
	}
	r.note("%s: n=%d, geometric mean of %d session medians", label, len(all), len(meds))
	return geomean(meds)
}

// verify re-checks the answers on the benchmark's own copy of each
// session's netlist, edited alongside the server's.  Every query's
// reported critical path must meet its target.  The queries that carried
// their sizes — each session's anchor and every sizesEvery-th query of a
// client — are re-timed and compared with a TILOS sizing of the same
// target, which also gives area_ratio.
func (env *serveEnv) verify(r *report) {
	var mu sync.Mutex
	var sumArea, sumTilos float64
	forEachParallel(len(env.plans), func(ci int) {
		plan := env.plans[ci]
		ecos := make([]*dag.Eco, len(plan.Sessions))
		fail := func(format string, args ...any) {
			mu.Lock()
			r.fail(format, args...)
			mu.Unlock()
		}
		for s, name := range plan.Sessions {
			c, err := minflo.CircuitByName(name)
			if err == nil {
				ecos[s], err = dag.NewEco(c, model)
			}
			if err != nil {
				fail("%s: %v", name, err)
				return
			}
		}
		for _, rec := range env.recs[ci] {
			if rec.Err != nil {
				continue // counted when it came back
			}
			eco := ecos[rec.Session]
			if rec.Edit {
				if _, err := eco.Apply([]dag.Edit{{Op: dag.EditLoad, Gate: rec.Gate, LoadFF: rec.LoadFF}}); err != nil {
					fail("replay edit on gate %d: %v", rec.Gate, err)
				}
				continue
			}
			q := rec.Q
			switch {
			case q.Error != nil || q.Partial:
				fail("query at %g answered partially: %+v", rec.T, q.Error)
				continue
			case !(q.Area > 0) || q.CPPS > rec.T*(1+cpSlack):
				fail("query at %g: area %g, critical path %g", rec.T, q.Area, q.CPPS)
				continue
			case q.Sizes == nil:
				continue
			}
			tl, err := tilos.Size(eco.P, rec.T, nil, tilos.Options{})
			if err != nil {
				fail("TILOS reference at %g: %v", rec.T, err)
				continue
			}
			bound := 0.0
			if q.Seed == core.SeedTilos {
				bound = tl.Area // a cold answer starts from exactly this sizing
			}
			if err := checkSizing(eco.P, q.Sizes, rec.T, q.Area, bound); err != nil {
				fail("%s query at %g: %v", plan.Sessions[rec.Session], rec.T, err)
				continue
			}
			mu.Lock()
			sumArea += q.Area
			sumTilos += tl.Area
			mu.Unlock()
		}
	})
	r.E2E["area_ratio"] = ratio(sumArea, sumTilos)
}

// trace replays each client's exact history through a serial twin
// (core.NewEcoSession with the daemon's options), timing the calls the
// server made; and re-runs every anchor query through the traced
// replica for the cold path's layer breakdown.
func (env *serveEnv) trace(r *report, tr *tracer) {
	twinOK := true
	mismatch := func(format string, args ...any) {
		if twinOK {
			r.note("trace: twin "+format, args...)
		}
		twinOK = false
	}
	var self []float64
	resize := map[string][]float64{}
	iters := map[string][]float64{}
	var edits, coneGates []float64
	var queries, seeded, coneTried, coneHit, editFallbacks, nEdits int
	var resolves int
	for ci, plan := range env.plans {
		twins := make([]*core.Session, len(plan.Sessions))
		for s, name := range plan.Sessions {
			c, err := minflo.CircuitByName(name)
			var eco *dag.Eco
			if err == nil {
				eco, err = dag.NewEco(c, model)
			}
			if err == nil {
				twins[s], err = core.NewEcoSession(eco, core.Options{
					FlowEngine:     daemonEngine,
					Parallelism:    1,
					TrustRegion:    daemonTrustRegion,
					EditConeResize: env.workload == wServeEco,
				})
			}
			if err != nil {
				mismatch("%s: %v", name, err)
				return
			}
			defer twins[s].Close()
		}
		for _, rec := range env.recs[ci] {
			if rec.Err != nil {
				continue
			}
			cs := twins[rec.Session]
			if rec.Edit {
				parent := tr.record(spanHTTPEdit, 0, rec.Start, rec.Lat)
				t0 := time.Now()
				rep, err := cs.ApplyEdits([]dag.Edit{{Op: dag.EditLoad, Gate: rec.Gate, LoadFF: rec.LoadFF}})
				d := time.Since(t0)
				tr.record(spanTwinEdit, parent, t0, d)
				if err != nil || rep.ConeResizePending != rec.E.ConeResizePending || rep.Fallback != rec.E.Fallback {
					mismatch("edit on gate %d disagrees with the server (%v)", rec.Gate, err)
				}
				nEdits++
				if rep != nil && rep.Fallback {
					editFallbacks++
				}
				edits = append(edits, ms(d))
				self = append(self, ms(rec.Lat-d))
				continue
			}
			parent := tr.record(spanHTTPQuery, 0, rec.Start, rec.Lat)
			before := cs.FlowResolves()
			ctx, cancel := context.WithCancel(context.Background()) // armed, as in the server
			t0 := time.Now()
			res, err := cs.Resize(ctx, rec.T, core.Budgets{})
			d := time.Since(t0)
			cancel()
			tr.record(spanTwinQuery, parent, t0, d)
			if err != nil || res.Seed != rec.Q.Seed || res.Iterations != rec.Q.Iterations ||
				math.Float64bits(res.Area) != math.Float64bits(rec.Q.Area) {
				mismatch("query at %g disagrees with the server (%v)", rec.T, err)
				continue
			}
			if rec.Anchor {
				continue
			}
			if after := cs.FlowResolves(); after >= before {
				resolves += after - before
			} else {
				resolves += after
			}
			queries++
			resize[res.Seed] = append(resize[res.Seed], ms(d))
			iters[res.Seed] = append(iters[res.Seed], float64(res.Iterations))
			self = append(self, ms(rec.Lat-d))
			if res.Seed != core.SeedTilos {
				seeded++
			}
			if rec.Armed {
				coneTried++
				if res.Seed == core.SeedCone {
					coneHit++
				}
			}
			if res.Seed == core.SeedCone {
				coneGates = append(coneGates, float64(res.ConeGates))
			}
		}
	}
	p50 := func(xs []float64) float64 { return percentile(xs, 50).Value }
	r.Layer["serve.self_ms_p50"] = p50(append([]float64(nil), self...))
	if q := percentile(self, 99); q.OK {
		r.Layer["serve.self_ms_p99"] = q.Value
	} else {
		r.note("serve.self_ms_p99 reported as 0: %s", q.Reason())
	}
	r.Layer["core.resize_warm_ms_p50"] = p50(resize[core.SeedWarm])
	r.Layer["core.resize_cold_ms_p50"] = p50(resize[core.SeedTilos])
	r.Layer["core.resize_cone_ms_p50"] = p50(resize[core.SeedCone])
	r.Layer["core.edit_ms_p50"] = p50(edits)
	r.Layer["core.seeded_ratio"] = ratio(float64(seeded), float64(queries))
	r.Layer["core.cone_ratio"] = ratio(float64(coneHit), float64(coneTried))
	r.Layer["core.edit_fallback_ratio"] = ratio(float64(editFallbacks), float64(nEdits))
	r.Layer["core.iters_warm"] = mean(iters[core.SeedWarm])
	r.Layer["core.iters_cold"] = mean(iters[core.SeedTilos])
	r.Layer["core.iters_cone"] = mean(iters[core.SeedCone])
	r.Layer["core.cone_gates_mean"] = mean(coneGates)
	r.Layer["mcmf.resolves_per_query"] = ratio(float64(resolves), float64(queries))
	r.Layer["n.warm"] = float64(len(resize[core.SeedWarm]))
	r.Layer["n.cold"] = float64(len(resize[core.SeedTilos]))
	r.Layer["n.cone"] = float64(len(resize[core.SeedCone]))
	r.Layer["n.edit"] = float64(nEdits)

	// The cold path's layers: each anchor query again, untraced through
	// core.SizeCtx and traced through the replica.
	opts := replicaOpts{Engine: daemonEngine, Par: 1}
	agg := &layerAgg{}
	match := twinOK
	var untraced, traced time.Duration
	from := tr.next()
	for ci, plan := range env.plans {
		for _, rec := range env.recs[ci][:len(plan.Sessions)] {
			name := plan.Sessions[rec.Session]
			p, err := buildProblem(name, minflo.CircuitByName)
			var ref *core.Result
			if err == nil {
				t0 := time.Now()
				ref, err = core.SizeCtx(context.Background(), p, rec.T, opts.core())
				untraced += time.Since(t0)
			}
			var rr *replicaResult
			if err == nil {
				t0 := time.Now()
				root := tr.begin(spanOneShot, 0)
				rr, err = replicaSize(tr, root, p, rec.T, opts)
				tr.end(root)
				traced += time.Since(t0)
			}
			switch {
			case err != nil:
				r.note("trace: %s anchor replica: %v", name, err)
				match = false
			case !replicaMatches(rr, ref) || math.Float64bits(rr.Area) != math.Float64bits(rec.Q.Area):
				r.note("trace: %s anchor replica differs from the served answer", name)
				match = false
			default:
				agg.add(rr)
			}
		}
	}
	agg.finish(r, tr, from, ms(traced), ms(untraced), match)
}
