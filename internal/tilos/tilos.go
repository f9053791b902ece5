// Package tilos implements the TILOS sizing heuristic of Fishburn and
// Dunlop ([1], as described in [15]) — the paper's baseline and the
// initial-guess engine for MINFLOTRANSIT.
//
// Starting from a minimum-sized circuit, TILOS repeatedly finds the
// critical path, computes for every vertex on it the sensitivity (delay
// reduction per unit area) of bumping that vertex's size by a constant
// factor (1.1 in the paper), applies the single best bump, and repeats
// until the timing target is met or no bump helps.
//
// A move costs what it changes, not the path's length in
// sensitivities: each vertex's sensitivity is cached with the path
// predecessor it was computed for, and a bump marks stale only the
// entries whose inputs it touched (see run).
package tilos

import (
	"errors"
	"fmt"

	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/sta"
)

// ErrInfeasible is returned when the target cannot be met: the critical
// path no longer improves even with the best bump available.
var ErrInfeasible = errors.New("tilos: delay target unreachable")

// Options control the heuristic.
type Options struct {
	Bump     float64 // upsizing factor per move (default 1.1, as in §3)
	MaxMoves int     // move budget (default 200·n)
}

// Result reports the sizing outcome.
type Result struct {
	X     []float64
	CP    float64
	Area  float64
	Moves int
	Evals int // sensitivity evaluations (cache misses) over all moves
}

// Size runs TILOS on problem p toward critical-path target t, starting
// from sizes x0 (pass nil for minimum sizes).
func Size(p *dag.Problem, t float64, x0 []float64, opt Options) (*Result, error) {
	opt, x, err := prepare(p, x0, opt)
	if err != nil {
		return nil, err
	}
	arr, err := sta.NewArrivals(p.G, p.Delays(x))
	if err != nil {
		return nil, err
	}
	return run(p, t, x, opt, arr)
}

// SizeWith is Size running on a caller-owned arrivals engine over p.G
// instead of building one: arr is bulk-reseeded to x0's delays (via
// dbuf, a scratch of length p.G.N(); nil allocates one) and left at
// the result's delays.  This is the warm-repair path of core.Session —
// a trust-region-seeded resize whose previous optimum misses the new
// target repairs it with a handful of TILOS moves from the prior
// sizes, skipping both the minimum-size restart and the arrival-engine
// rebuild.  The result is bit-identical to Size(p, t, x0, opt).
func SizeWith(p *dag.Problem, t float64, x0 []float64, opt Options, arr *sta.Arrivals, dbuf []float64) (*Result, error) {
	opt, x, err := prepare(p, x0, opt)
	if err != nil {
		return nil, err
	}
	if len(dbuf) != p.G.N() {
		dbuf = make([]float64, p.G.N())
	}
	if err := arr.Reseed(p.DelaysInto(dbuf, x)); err != nil {
		return nil, err
	}
	return run(p, t, x, opt, arr)
}

// prepare validates options and copies the start point.
func prepare(p *dag.Problem, x0 []float64, opt Options) (Options, []float64, error) {
	if opt.Bump == 0 {
		opt.Bump = 1.1
	}
	if opt.Bump <= 1 {
		return opt, nil, fmt.Errorf("tilos: bump factor %g must exceed 1", opt.Bump)
	}
	if opt.MaxMoves == 0 {
		opt.MaxMoves = 200 * p.NumSizable
	}
	var x []float64
	if x0 == nil {
		x = p.InitialSizes()
	} else {
		x = append([]float64(nil), x0...)
	}
	return opt, x, nil
}

// stale is the cache key of an entry that must be recomputed: it
// matches no path predecessor (a vertex id, or -1 for none).
const stale = -2

// sensEntry caches one vertex's sensitivity and the path predecessor
// it was computed for.
type sensEntry struct {
	sens float64
	key  int32
}

// run is the shared greedy loop: arr must already hold the arrival
// state of sizes x.
//
// A vertex's sensitivity reads only x[v], the sizes in v's delay row
// (its load) and, through the path predecessor u's load term, x[u] and
// u's coefficient on v.  So the loop caches it per vertex, keyed by
// the predecessor it was computed for (-1 at the path start or behind
// an unsizable vertex, whose load term TILOS ignores), and recomputes
// an entry only when its key differs from v's current predecessor.  A
// bump at b marks stale exactly the entries that read x[b]: b itself,
// the rows of csr.Incoming(b) (their load mentions x_b), and the
// columns of csr.Row(b) (their load term when b precedes them).  The
// argmax walks the path in order with the full sweep's first-wins
// comparison, so the trajectory is the full sweep's bit for bit.
func run(p *dag.Problem, t float64, x []float64, opt Options, arr *sta.Arrivals) (*Result, error) {
	// The CSR transpose gives, per vertex v, the vertices whose delay
	// mentions x_v (the coefficient coupling, NOT graph adjacency: at
	// transistor level pull-up and pull-down roots load each other
	// through the output node without sharing an edge) — no per-call
	// affected-list construction needed.
	csr := p.CSR()
	changed := make([]int, 0, 8)
	newDelays := make([]float64, 0, 8)
	var path []int // reused across moves
	cache := make([]sensEntry, p.NumSizable)
	for i := range cache {
		cache[i].key = stale
	}

	moves, evals := 0, 0
	for {
		cp := arr.CP()
		if cp <= t {
			return &Result{X: x, CP: cp, Area: p.Area(x), Moves: moves, Evals: evals}, nil
		}
		if moves >= opt.MaxMoves {
			return nil, fmt.Errorf("%w: move budget exhausted at CP %g (target %g)", ErrInfeasible, cp, t)
		}
		path = arr.AppendCriticalPath(path[:0])
		best, bestSens := -1, 0.0
		u := -1
		for _, v := range path {
			if v < p.NumSizable {
				e := &cache[v]
				if int(e.key) != u {
					e.sens, e.key = entry(p, csr, x, opt.Bump, u, v), int32(u)
					evals++
				}
				if e.sens > bestSens {
					bestSens = e.sens
					best = v
				}
				u = v
			} else {
				u = -1
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("%w: no improving move at CP %g (target %g)", ErrInfeasible, cp, t)
		}
		nx := x[best] * opt.Bump
		if nx > p.MaxSize {
			nx = p.MaxSize
		}
		x[best] = nx
		moves++
		// Incremental re-timing: the bump changes best's own delay and
		// the delay of every vertex whose load mentions x_best.
		changed = append(changed[:0], best)
		newDelays = append(newDelays[:0], csr.Delay(best, x[best], x))
		cache[best].key = stale
		rows, _ := csr.Incoming(best)
		for _, r := range rows {
			changed = append(changed, int(r))
			newDelays = append(newDelays, csr.Delay(int(r), x[r], x))
			cache[r].key = stale
		}
		cols, _ := csr.Row(best)
		for _, c := range cols {
			cache[c].key = stale
		}
		arr.SetDelays(changed, newDelays)
	}
}

// entry returns the sensitivity -Δdelay/Δarea of bumping sizable
// vertex v whose path predecessor is the sizable vertex u (-1 for
// none), or 0 — which never beats the loop's initial best — when v
// cannot grow.
func entry(p *dag.Problem, csr *delay.CSR, x []float64, bump float64, u, v int) float64 {
	if x[v] >= p.MaxSize {
		return 0
	}
	nx := x[v] * bump
	if nx > p.MaxSize {
		nx = p.MaxSize
	}
	// Delay change along the critical path: own delay improves
	// (stronger drive), the path predecessor's worsens (heavier load).
	// As in TILOS, off-path fanins are ignored — the next move's timing
	// pass accounts for any new critical path.
	delta := deltaOwn(csr, x, v, nx)
	if u >= 0 {
		delta += deltaLoad(csr, x, u, v, nx)
	}
	dArea := p.AreaW[v] * (nx - x[v])
	if dArea <= 0 {
		return 0
	}
	return -delta / dArea
}

// deltaOwn returns delay(v) at size nx minus delay(v) at x[v].
func deltaOwn(csr *delay.CSR, x []float64, v int, nx float64) float64 {
	load := csr.LoadAt(v, x)
	return load/nx - load/x[v]
}

// deltaLoad returns the change in delay(u) when vertex v (a fanout of
// u) grows from x[v] to nx.
func deltaLoad(csr *delay.CSR, x []float64, u, v int, nx float64) float64 {
	cols, vals := csr.Row(u)
	var a float64
	for k := range cols {
		if int(cols[k]) == v {
			a += vals[k]
		}
	}
	return a * (nx - x[v]) / x[u]
}
