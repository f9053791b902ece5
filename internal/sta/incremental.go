// Incremental arrival-time maintenance.  TILOS re-times the circuit
// after every single bump; a full forward/backward analysis per move
// makes the baseline superlinear.  Arrivals maintains only the forward
// quantities (AT, finish times, CP) and repropagates from the changed
// vertices in topological order, which is all the greedy needs: the
// target check uses CP, path extraction uses AT, and sensitivities are
// local.
//
// The worklist is a bitset over topological positions swept upward, so
// a move costs no heap operations.  While no delay is negative, finish
// never drops along an edge: CP scans only the fanout-free vertices,
// and the critical path's end is found by a backward search from them.
// Cone subproblems carry negative pad delays and take full scans.
package sta

import (
	"fmt"
	"math/bits"

	"minflo/internal/graph"
)

// Arrivals tracks arrival times under point updates to vertex delays.
type Arrivals struct {
	g      *graph.Digraph
	d      []float64
	at     []float64
	finish []float64 // at + d
	pos    []int     // topological position per vertex
	order  []int     // vertex per topological position
	sinks  []int     // vertices without fanouts, ascending
	neg    int       // number of entries of d that are negative or NaN

	// Flattened CSR adjacency (avoids edge-struct copies on the hot
	// path and per-vertex slice growth at construction): the fanins of
	// v are predIdx[predPtr[v]:predPtr[v+1]], fanouts likewise.
	predPtr, predIdx []int32
	succPtr, succIdx []int32

	pending []uint64 // SetDelays worklist: bit i marks order[i]
	seen    []int    // criticalEnd's visit list
}

// NewArrivals runs the initial forward pass.
func NewArrivals(g *graph.Digraph, d []float64) (*Arrivals, error) {
	if len(d) != g.N() {
		return nil, fmt.Errorf("sta: delay vector length %d != %d vertices", len(d), g.N())
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.N()
	a := &Arrivals{
		g:       g,
		d:       make([]float64, n),
		at:      make([]float64, n),
		finish:  make([]float64, n),
		pos:     make([]int, n),
		order:   order,
		sinks:   g.Sinks(),
		pending: make([]uint64, (n+63)/64),
	}
	// CSR adjacency by counting sort over the edge list; iterating
	// edges in insertion order lands each vertex's neighbours in the
	// same per-vertex order as g.In/g.Out.
	edges := g.Edges()
	a.predPtr = make([]int32, n+1)
	a.succPtr = make([]int32, n+1)
	for i := range edges {
		a.predPtr[edges[i].To+1]++
		a.succPtr[edges[i].From+1]++
	}
	for v := 0; v < n; v++ {
		a.predPtr[v+1] += a.predPtr[v]
		a.succPtr[v+1] += a.succPtr[v]
	}
	a.predIdx = make([]int32, len(edges))
	a.succIdx = make([]int32, len(edges))
	pc := append([]int32(nil), a.predPtr[:n]...)
	sc := append([]int32(nil), a.succPtr[:n]...)
	for i := range edges {
		e := &edges[i]
		a.predIdx[pc[e.To]] = int32(e.From)
		pc[e.To]++
		a.succIdx[sc[e.From]] = int32(e.To)
		sc[e.From]++
	}
	for i, v := range order {
		a.pos[v] = i
	}
	return a, a.Reseed(d)
}

// Reseed replaces every vertex delay with d and recomputes the full
// forward pass in place — the bulk form of SetDelays for callers that
// jump the engine to an externally-seeded sizing (a warm session
// restarting from a previous optimum) without rebuilding the engine.
// The resulting arrival state is bit-identical to NewArrivals(g, d).
func (a *Arrivals) Reseed(d []float64) error {
	if len(d) != a.g.N() {
		return fmt.Errorf("sta: Reseed delay vector length %d != %d vertices", len(d), a.g.N())
	}
	for v, dv := range d {
		a.setDelay(v, dv)
	}
	for _, v := range a.order {
		a.recompute(v)
	}
	return nil
}

// FinishSlice exposes the finish array AT+delay (read-only for
// callers) — the arrival a fanout of v sees.  Cone extraction freezes
// these as boundary arrivals.
func (a *Arrivals) FinishSlice() []float64 { return a.finish }

// CP returns the critical-path delay max(AT+delay), or 0 when every
// finish time is negative.
func (a *Arrivals) CP() float64 {
	best := 0.0
	if a.neg > 0 {
		for _, f := range a.finish {
			if f > best {
				best = f
			}
		}
		return best
	}
	for _, v := range a.sinks {
		if f := a.finish[v]; f > best {
			best = f
		}
	}
	return best
}

// setDelay stores v's delay and keeps the negative-delay count.
func (a *Arrivals) setDelay(v int, dv float64) {
	if !(a.d[v] >= 0) {
		a.neg--
	}
	if !(dv >= 0) {
		a.neg++
	}
	a.d[v] = dv
}

// recompute refreshes at/finish for v from its fanins and reports
// whether v's finish time changed.
func (a *Arrivals) recompute(v int) bool {
	at := 0.0
	for _, u := range a.predIdx[a.predPtr[v]:a.predPtr[v+1]] {
		if f := a.finish[u]; f > at {
			at = f
		}
	}
	old := a.finish[v]
	a.at[v] = at
	a.finish[v] = at + a.d[v]
	return a.finish[v] != old
}

// SetDelays updates the delays of the listed vertices and repropagates
// arrival times downstream.  The worklist is swept in increasing
// topological position, so each affected vertex is recomputed exactly
// once, after all of its changed fanins.
func (a *Arrivals) SetDelays(vs []int, newD []float64) {
	lo, hi := len(a.pending), -1
	mark := func(v int) {
		p := a.pos[v]
		w := p >> 6
		a.pending[w] |= 1 << (p & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	for i, v := range vs {
		if a.d[v] == newD[i] {
			continue
		}
		a.setDelay(v, newD[i])
		mark(v)
	}
	for w := lo; w <= hi; w++ {
		for a.pending[w] != 0 {
			b := bits.TrailingZeros64(a.pending[w])
			a.pending[w] &^= 1 << b
			v := a.order[w<<6|b]
			if a.recompute(v) {
				for _, s := range a.succIdx[a.succPtr[v]:a.succPtr[v+1]] {
					mark(int(s))
				}
			}
		}
	}
}

// AppendCriticalPath appends one critical path (source to the
// lowest-numbered vertex attaining CP) to dst and returns it — the
// allocation-free form for callers that extract a path per move
// (TILOS) and can reuse a buffer.
func (a *Arrivals) AppendCriticalPath(dst []int) []int {
	end := a.criticalEnd(a.CP() - 1e-12)
	if end == -1 {
		return dst
	}
	base := len(dst)
	rev := dst
	for v := end; v >= 0; {
		rev = append(rev, v)
		next := -1
		for _, u := range a.predIdx[a.predPtr[v]:a.predPtr[v+1]] {
			if a.finish[u] >= a.at[v]-1e-12 {
				next = int(u)
				break
			}
		}
		v = next
	}
	for i, j := base, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// criticalEnd returns the lowest-numbered vertex whose finish time is
// at least thr, or -1.  With no negative delay such a vertex reaches a
// sink through such vertices (finish never drops along an edge), so
// the search runs backward from the sinks, marking visits in the idle
// worklist bitset, instead of over every vertex.
func (a *Arrivals) criticalEnd(thr float64) int {
	if a.neg > 0 {
		for v, f := range a.finish {
			if f >= thr {
				return v
			}
		}
		return -1
	}
	seen := a.seen[:0]
	visit := func(v int) {
		p := a.pos[v]
		if a.finish[v] >= thr && a.pending[p>>6]&(1<<(p&63)) == 0 {
			a.pending[p>>6] |= 1 << (p & 63)
			seen = append(seen, v)
		}
	}
	for _, v := range a.sinks {
		visit(v)
	}
	end := -1
	for i := 0; i < len(seen); i++ {
		v := seen[i]
		if end == -1 || v < end {
			end = v
		}
		for _, u := range a.predIdx[a.predPtr[v]:a.predPtr[v+1]] {
			visit(int(u))
		}
	}
	for _, v := range seen {
		a.pending[a.pos[v]>>6] = 0
	}
	a.seen = seen
	return end
}
