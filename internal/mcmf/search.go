// Per-search Dijkstra state: the residual arcs, potentials and excess
// vector are read-only during a search, while everything a search
// writes — each node's tentative distance, shortest-path tree arc and
// epoch stamp, and the radix heap — lives in the node records
// (Solver.node) and the Solver's searchScratch (s.ss), which the radix
// search (radix.go) fills.
package mcmf

// nodeState is one node's record: its potential, which persists across
// solves, and its state in the current search, valid only while stamp
// matches the search epoch.  A relaxation reads the head node's
// potential, stamp and distance, and writes its distance and tree arc,
// all in this one 24-byte record.
type nodeState struct {
	pot  int64 // node potential (valid after Solve)
	dist int64 // tentative distance; a blocking flow's BFS level
	// prev is the position in Solver.arcs of the search tree's arc
	// into the node (−1 at a source); a blocking flow keeps its
	// current-arc position here instead.
	prev  int32
	stamp uint32
}

// searchScratch is the rest of a shortest-path search's state: the
// epoch that validates the node records' search fields (so per-search
// reset is O(1) plus the nodes actually visited), the visited list and
// the radix heap.
type searchScratch struct {
	epoch   uint32
	visited []int32
	q       radixHeap
}

// ensureSSP sizes the scratch the SSP routing loops fill up to the
// node count: the visited list and radix-heap pool of a search (a
// phase's multi-source search can touch every node), the source list,
// and a phase's DFS path.  Sizing them once per network keeps warm
// solves allocation-free; the cost-scaling oracle's full solves, which
// never search, skip it.
func (s *Solver) ensureSSP() {
	n := s.n
	if cap(s.ss.visited) >= n {
		return
	}
	s.ss.visited = make([]int32, 0, n)
	s.ss.q.pool = make([]radixEntry, 0, n)
	s.sources = make([]int32, 0, n)
	s.path = make([]int32, 0, n)
}

// SearchScratchBytes estimates the search scratch an n-node network
// keeps once solved or repaired: per node its 24-byte record (the
// potential and the search fields), a visited-list entry, a 16-byte
// radix-heap pool entry, a source-list entry and a phase's DFS path
// entry.  A search that pushes a node more than once grows the pool
// past n, so this is a floor, not a bound.
func SearchScratchBytes(n int) int64 {
	return int64(n) * (24 + 4 + 16 + 4 + 4)
}

// beginSearch starts a fresh search epoch.
func (s *Solver) beginSearch() {
	sc := &s.ss
	sc.epoch++
	if sc.epoch == 0 { // uint32 wraparound: invalidate all stamps
		for v := range s.node {
			s.node[v].stamp = 0
		}
		sc.epoch = 1
	}
	sc.visited = sc.visited[:0]
}

// touch stamps node v into the current search epoch, unreached.
func (s *Solver) touch(v int32) {
	nv := &s.node[v]
	nv.dist, nv.prev, nv.stamp = inf, -1, s.ss.epoch
	s.ss.visited = append(s.ss.visited, v)
}

// updatePotentials applies the completed search, truncated at
// the first deficit's distance dt: pot += dist − dt on settled nodes
// only (equivalent to the classic pot += min(dist, dt) up to a uniform
// −dt shift, which leaves every reduced cost unchanged).  Unvisited
// and unsettled nodes keep their potentials, so the update is
// O(visited), not O(n).  Every arc of the search's shortest-path tree
// into a settled node, and the tree arc into the deficit, then has
// reduced cost zero.
func (s *Solver) updatePotentials(dt int64) {
	for _, v := range s.ss.visited {
		if nv := &s.node[v]; nv.dist < dt {
			nv.pot += nv.dist - dt
		}
	}
}

// applyAugmentation commits the augmentation described by the
// completed single-source search from src to target at
// shortest distance dt: the settled-only potential update, then the
// bottleneck push along the search tree's path.
func (s *Solver) applyAugmentation(src, target int32, dt int64, excess []int64) {
	s.updatePotentials(dt)
	// Bottleneck along the path.
	bott := excess[src]
	if -excess[target] < bott {
		bott = -excess[target]
	}
	for v := target; v != src; {
		a := &s.arcs[s.node[v].prev]
		if a.cap < bott {
			bott = a.cap
		}
		v = s.arcs[a.rev].to
	}
	// Augment.
	for v := target; v != src; {
		a := &s.arcs[s.node[v].prev]
		rev := &s.arcs[a.rev]
		a.cap -= bott
		rev.cap += bott
		v = rev.to
	}
	excess[src] -= bott
	excess[target] += bott
}
