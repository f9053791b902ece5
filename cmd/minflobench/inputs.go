package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"minflo"
	"minflo/internal/circuit"
	"minflo/internal/dag"
	"minflo/internal/gen"
)

// The seed drives only the generated inputs below — specs, targets,
// target walks and edit operations — and all of it is generated during
// set-up, before the first timed operation.  The circuits themselves
// come from the deterministic generators in internal/gen.

// Workload names.
const (
	wTable1      = "table1"
	wScaling     = "scaling"
	wServeRefine = "serve_refine"
	wServeEco    = "serve_eco"
)

var workloads = []string{wTable1, wScaling, wServeRefine, wServeEco}

// Seed perturbations.  They are kept small because each run's end-to-end
// numbers are compared across seeds: with a 3% table-1 spec range, for
// instance, adder256's TILOS run alone took 1.59 s on one seed and
// 2.21 s on another, and tree16384 takes 15 D/W iterations below
// 0.9005·Dmin but 14 above.
const (
	table1SpecJitter = 0.003 // spec = PaperSpec × (1 + U[0, jitter])
	scalingFracLo    = 0.901 // scaling targets U[lo, hi]·Dmin
	scalingFracHi    = 0.902
)

// serve workload shape.
const (
	refineLo, refineHi = 0.55, 0.75 // target walk range, fraction of Dmin
	refineStep         = 0.01       // relative walk step bound
	refineJumpEvery    = 10         // every 10th query jumps ...
	refineJumpMin      = 0.08       // ... at least this far (trust region is 0.05)
	ecoFrac            = 0.6        // serve_eco query target, fraction of Dmin
	ecoLoadStep        = 1.0        // load edit: ±U(0, step) fF around the current load
	sizesEvery         = 25         // want_sizes on every 25th query of a client
)

type table1Job struct {
	Name string
	Spec float64
}

type scalingJob struct {
	Name string
	Frac float64
}

// clientPlan is one serve client's pre-generated closed-loop script.
type clientPlan struct {
	Sessions []string  // circuit name per session
	Anchor   []float64 // set-up query target per session, fraction of Dmin
	Ops      []planOp
}

// planOp is one request: a query, or a single-gate load edit.
type planOp struct {
	Session   int
	Edit      bool
	Gate      int
	LoadFF    float64
	Frac      float64 // query target, fraction of the session's Dmin
	Jump      bool    // the query leaves the trust region
	WantSizes bool
}

// rngFor gives each workload (and each serve client) its own stream so
// that adding a client or a workload does not shift the others.
func rngFor(seed int64, workload string, stream int) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range workload {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*7919 + h + int64(stream)*104729))
}

// table1Names is the circuit list of the table1 workload (the paper's
// Table 1 suite; the smoke variant keeps its four smallest rows).
func table1Names(smoke bool) []string {
	if smoke {
		return []string{"adder32", "c432", "c499", "c880"}
	}
	return minflo.BenchmarkNames()
}

func genTable1(seed int64, smoke bool) []table1Job {
	rng := rngFor(seed, wTable1, 0)
	var jobs []table1Job
	for _, name := range table1Names(smoke) {
		jobs = append(jobs, table1Job{Name: name, Spec: minflo.PaperSpec(name) * (1 + table1SpecJitter*rng.Float64())})
	}
	return jobs
}

// scalingNames is the scaling workload's circuit list: the deep mesh and
// two wide trees of the large-circuit regime.
func scalingNames(smoke bool) []string {
	if smoke {
		return []string{"mesh20x20", "tree1024"}
	}
	return []string{"mesh100x100", "tree8192", "tree16384"}
}

// scalingCircuit builds a scaling circuit from its name.
func scalingCircuit(name string) (*circuit.Circuit, error) {
	var a, b int
	if _, err := fmt.Sscanf(name, "mesh%dx%d", &a, &b); err == nil {
		return gen.Mesh(a, b), nil
	}
	if _, err := fmt.Sscanf(name, "tree%d", &a); err == nil {
		return gen.BalancedTree(a), nil
	}
	return nil, fmt.Errorf("unknown scaling circuit %q", name)
}

func genScaling(seed int64, smoke bool) []scalingJob {
	rng := rngFor(seed, wScaling, 0)
	var jobs []scalingJob
	for _, name := range scalingNames(smoke) {
		jobs = append(jobs, scalingJob{Name: name, Frac: scalingFracLo + (scalingFracHi-scalingFracLo)*rng.Float64()})
	}
	return jobs
}

// serveSessions is each client's session list for a serve workload.
func serveSessions(workload string, smoke bool) [][]string {
	switch {
	case workload == wServeRefine && smoke:
		return [][]string{{"mult8"}, {"c432"}}
	case workload == wServeRefine:
		return [][]string{{"mult8"}, {"c1908"}}
	case smoke:
		return [][]string{{"c880", "c432"}, {"c880", "c432"}}
	default:
		return [][]string{{"c7552", "c1908"}, {"c7552", "c1908"}}
	}
}

// genServe writes each client's script: maxOps requests, more than the
// run can issue.  cones reports, per gate of a circuit, the size of the
// gate's forward timing cone (see coneSizes).
func genServe(workload string, seed int64, smoke bool, maxOps int, cones func(string) []int) []clientPlan {
	var plans []clientPlan
	for ci, sessions := range serveSessions(workload, smoke) {
		rng := rngFor(seed, workload, ci)
		cp := clientPlan{Sessions: sessions, Anchor: make([]float64, len(sessions))}
		if workload == wServeRefine {
			cp.Anchor[0] = (refineLo + refineHi) / 2
			cp.Ops = refineWalk(rng, cp.Anchor[0], maxOps)
		} else {
			cp.Ops = ecoScript(rng, sessions, cones, maxOps)
			for s := range cp.Anchor {
				cp.Anchor[s] = ecoFrac
			}
		}
		plans = append(plans, cp)
	}
	return plans
}

// strataOrder is the order in which the serve scripts visit ten strata
// of an input property the answer path depends on: the target range of
// a refine jump, the forward-cone size of an edited gate.  The seed
// picks the value inside each stratum, so every run has the same mix of
// cheap and expensive requests rather than whatever mix one seed's
// draws happen to give — with a few hundred requests a run, that mix
// alone would move the results by more than the regression bounds.
var strataOrder = [...]int{0, 5, 2, 7, 4, 9, 1, 6, 3, 8}

// refineWalk is a random walk of relative steps within ±refineStep,
// reflected into [refineLo, refineHi]; every refineJumpEvery-th query
// jumps into the next of ten equal strata of that range, skipping
// strata closer than refineJumpMin to the current target.
func refineWalk(rng *rand.Rand, f float64, n int) []planOp {
	ops := make([]planOp, n)
	next := 0
	width := (refineHi - refineLo) / float64(len(strataOrder))
	for k := range ops {
		jump := (k+1)%refineJumpEvery == 0
		if jump {
			for {
				s := strataOrder[next%len(strataOrder)]
				next++
				g := refineLo + (float64(s)+rng.Float64())*width
				if math.Abs(g-f)/f >= refineJumpMin {
					f = g
					break
				}
			}
		} else {
			f *= 1 + refineStep*(2*rng.Float64()-1)
			if f < refineLo {
				f = 2*refineLo - f
			}
			if f > refineHi {
				f = 2*refineHi - f
			}
		}
		ops[k] = planOp{Frac: f, Jump: jump, WantSizes: (k+1)%sizesEvery == 0}
	}
	return ops
}

// ecoScript cycles through the client's sessions; on each it edits the
// extra load of one gate and then queries at ecoFrac·Dmin.  The gates of
// a circuit are cut into ten strata by forward-cone size — the daemon
// re-sizes a small cone locally and falls back to a cold restart on a
// large one — and a session's edits come in passes of ten, one per
// stratum in strataOrder.  An upward pass picks a gate uniformly within
// each stratum and raises its extra load by U(0, ecoLoadStep) fF; the
// downward pass after it lowers the same gates' loads by U(0,
// ecoLoadStep) fF, floored at 0.  Every edit changes a load.
func ecoScript(rng *rand.Rand, sessions []string, cones func(string) []int, n int) []planOp {
	const k = len(strataOrder)
	strata := make([][k][]int, len(sessions))
	loads := make([]map[int]float64, len(sessions))
	for s, name := range sessions {
		sizes := cones(name)
		order := make([]int, len(sizes))
		for g := range order {
			order[g] = g
		}
		sort.SliceStable(order, func(i, j int) bool { return sizes[order[i]] < sizes[order[j]] })
		for i, g := range order {
			strata[s][i*k/len(order)] = append(strata[s][i*k/len(order)], g)
		}
		loads[s] = make(map[int]float64)
	}
	edits := make([]int, len(sessions))
	picked := make([][k]int, len(sessions))
	ops := make([]planOp, 0, n)
	queries := 0
	for len(ops)+2 <= n {
		s := (len(ops) / 2) % len(sessions)
		pass, slot := edits[s]/k, edits[s]%k
		edits[s]++
		g, step := picked[s][slot], -ecoLoadStep*rng.Float64()
		if pass%2 == 0 {
			pool := strata[s][strataOrder[slot]]
			if len(pool) == 0 { // a circuit with fewer gates than strata
				pool = strata[s][k-1]
			}
			g, step = pool[rng.Intn(len(pool))], -step
			picked[s][slot] = g
		}
		v := math.Max(0, loads[s][g]+step)
		loads[s][g] = v
		queries++
		ops = append(ops,
			planOp{Session: s, Edit: true, Gate: g, LoadFF: v},
			planOp{Session: s, Frac: ecoFrac, WantSizes: queries%sizesEvery == 0})
	}
	return ops
}

// coneSizes returns, per gate of p, how many gates its forward timing
// cone holds, itself included — the measure the daemon's cone budget
// applies to a single-gate edit.
func coneSizes(p *dag.Problem) []int {
	n := p.NumSizable
	words := (n + 63) / 64
	reach := make([]uint64, n*words)
	sizes := make([]int, n)
	topo := p.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		if v >= n {
			continue
		}
		row := reach[v*words : (v+1)*words]
		row[v/64] |= 1 << (v % 64)
		for _, e := range p.G.Out(v) {
			if w := p.G.Edge(e).To; w < n {
				for k, x := range reach[w*words : (w+1)*words] {
					row[k] |= x
				}
			}
		}
		for _, x := range row {
			sizes[v] += bits.OnesCount64(x)
		}
	}
	return sizes
}
