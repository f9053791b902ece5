// Incremental arrival-time maintenance.  TILOS re-times the circuit
// after every single bump; a full forward/backward analysis per move
// makes the baseline superlinear.  Arrivals maintains only the forward
// quantities (AT, finish times, CP) and repropagates from the changed
// vertices in topological order, which is all the greedy needs: the
// target check uses CP, path extraction uses AT, and sensitivities are
// local.
//
// Every per-vertex array — delays, arrivals, finish times and the
// fanin/fanout adjacency, whose entries are positions too — is stored
// by topological position, not by vertex id.  The worklist is a bitset
// over positions swept upward, so a move costs no heap operations and
// marks fanouts straight into the bitset.  Vertex ids appear only at
// the API edge: SetDelays' and Reseed's inputs, AppendCriticalPath's
// output, and criticalEnd's lowest-numbered-vertex rule.  While no
// delay is negative, finish never drops along an edge: CP scans only
// the fanout-free vertices, and the critical path's end is found by a
// backward search from them.  A negative or NaN delay falls back to
// full scans.
package sta

import (
	"fmt"
	"math/bits"

	"minflo/internal/graph"
)

// Arrivals tracks arrival times under point updates to vertex delays.
type Arrivals struct {
	g      *graph.Digraph
	d      []float64 // by topological position, as are at and finish
	at     []float64
	finish []float64 // at + d
	pos    []int     // topological position per vertex
	order  []int     // vertex per topological position
	sinks  []int     // positions of the vertices without fanouts
	neg    int       // number of entries of d that are negative or NaN

	// Flattened CSR adjacency over positions (avoids edge-struct copies
	// on the hot path and per-vertex slice growth at construction): the
	// fanins of position i are predIdx[predPtr[i]:predPtr[i+1]], in the
	// vertex's g.In order, fanouts likewise.
	predPtr, predIdx []int32
	succPtr, succIdx []int32

	pending []uint64 // SetDelays worklist: bit i marks position i
	seen    []int    // criticalEnd's visit list (positions)
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
		pending: make([]uint64, (n+63)/64),
	}
	for i, v := range order {
		a.pos[v] = i
	}
	a.sinks = g.Sinks()
	for i, v := range a.sinks {
		a.sinks[i] = a.pos[v]
	}
	// CSR adjacency by counting sort over the edge list; iterating
	// edges in insertion order lands each vertex's neighbours in the
	// same per-vertex order as g.In/g.Out.
	edges := g.Edges()
	a.predPtr = make([]int32, n+1)
	a.succPtr = make([]int32, n+1)
	for i := range edges {
		a.predPtr[a.pos[edges[i].To]+1]++
		a.succPtr[a.pos[edges[i].From]+1]++
	}
	for i := 0; i < n; i++ {
		a.predPtr[i+1] += a.predPtr[i]
		a.succPtr[i+1] += a.succPtr[i]
	}
	a.predIdx = make([]int32, len(edges))
	a.succIdx = make([]int32, len(edges))
	pc := append([]int32(nil), a.predPtr[:n]...)
	sc := append([]int32(nil), a.succPtr[:n]...)
	for i := range edges {
		from, to := int32(a.pos[edges[i].From]), int32(a.pos[edges[i].To])
		a.predIdx[pc[to]] = from
		pc[to]++
		a.succIdx[sc[from]] = to
		sc[from]++
	}
	return a, a.Reseed(d)
}

// Reseed replaces every vertex delay with d (indexed by vertex) and
// recomputes the full forward pass in place — the bulk form of
// SetDelays for callers that jump the engine to an externally-seeded
// sizing (a warm session restarting from a previous optimum) without
// rebuilding the engine.  The resulting arrival state is bit-identical
// to NewArrivals(g, d).
func (a *Arrivals) Reseed(d []float64) error {
	if len(d) != a.g.N() {
		return fmt.Errorf("sta: Reseed delay vector length %d != %d vertices", len(d), a.g.N())
	}
	for v, dv := range d {
		a.setDelay(a.pos[v], dv)
	}
	for i := range a.order {
		a.recompute(i)
	}
	return nil
}

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
	for _, i := range a.sinks {
		if f := a.finish[i]; f > best {
			best = f
		}
	}
	return best
}

// setDelay stores position i's delay and keeps the negative-delay
// count.
func (a *Arrivals) setDelay(i int, dv float64) {
	if !(a.d[i] >= 0) {
		a.neg--
	}
	if !(dv >= 0) {
		a.neg++
	}
	a.d[i] = dv
}

// recompute refreshes at/finish at position i from its fanins and
// reports whether its finish time changed.
func (a *Arrivals) recompute(i int) bool {
	at := 0.0
	for _, u := range a.predIdx[a.predPtr[i]:a.predPtr[i+1]] {
		if f := a.finish[u]; f > at {
			at = f
		}
	}
	old := a.finish[i]
	a.at[i] = at
	a.finish[i] = at + a.d[i]
	return a.finish[i] != old
}

// SetDelays updates the delays of the listed vertices and repropagates
// arrival times downstream.  The worklist is swept in increasing
// topological position, so each affected vertex is recomputed exactly
// once, after all of its changed fanins.
func (a *Arrivals) SetDelays(vs []int, newD []float64) {
	lo, hi := len(a.pending), -1
	for k, v := range vs {
		i := a.pos[v]
		if a.d[i] == newD[k] {
			continue
		}
		a.setDelay(i, newD[k])
		w := i >> 6
		a.pending[w] |= 1 << (i & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	for w := lo; w <= hi; w++ {
		for a.pending[w] != 0 {
			b := bits.TrailingZeros64(a.pending[w])
			a.pending[w] &^= 1 << b
			i := w<<6 | b
			if !a.recompute(i) {
				continue
			}
			for _, s := range a.succIdx[a.succPtr[i]:a.succPtr[i+1]] {
				a.pending[s>>6] |= 1 << (s & 63)
				hi = max(hi, int(s>>6))
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
	for i := a.pos[end]; i >= 0; {
		rev = append(rev, a.order[i])
		next := -1
		for _, u := range a.predIdx[a.predPtr[i]:a.predPtr[i+1]] {
			if a.finish[u] >= a.at[i]-1e-12 {
				next = int(u)
				break
			}
		}
		i = next
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
		for v, i := range a.pos {
			if a.finish[i] >= thr {
				return v
			}
		}
		return -1
	}
	seen := a.seen[:0]
	visit := func(i int) {
		if a.finish[i] >= thr && a.pending[i>>6]&(1<<(i&63)) == 0 {
			a.pending[i>>6] |= 1 << (i & 63)
			seen = append(seen, i)
		}
	}
	for _, i := range a.sinks {
		visit(i)
	}
	end := -1
	for k := 0; k < len(seen); k++ {
		i := seen[k]
		if v := a.order[i]; end == -1 || v < end {
			end = v
		}
		for _, u := range a.predIdx[a.predPtr[i]:a.predPtr[i+1]] {
			visit(int(u))
		}
	}
	for _, i := range seen {
		a.pending[i>>6] = 0
	}
	a.seen = seen
	return end
}
