// Per-search Dijkstra state: the residual arcs, potentials and excess
// vector are read-only during a search, while everything a search
// writes — tentative distances, the shortest-path tree, the epoch
// stamps, the bucket queue and the heap — lives in the Solver's
// searchScratch (s.ss), which the bucket search (dial.go) and its heap
// fallback share.
package mcmf

// searchScratch is the write-side state of one shortest-path search:
// epoch-stamped dist/prevArc entries (valid only when stamp matches
// epoch, so per-search reset is O(1) plus the nodes actually visited),
// Dial's bucket queue, the inline 4-ary heap, and the heap back-off
// that carries over from one search to the next.
type searchScratch struct {
	dist    []int64
	prevArc []int32
	stamp   []uint32
	epoch   uint32
	visited []int32
	q       bucketQueue
	h       heap4

	// skip/skipLen are the heap back-off (shortestPath).  They decide
	// heap-vs-bucket searches, and with them tie-breaking, so an
	// aborted attempt rolls them back (restoreAttempt).
	skip, skipLen int
	heapOnly      bool // every search on the heap: ssp's rescue (runEngine)
}

// ensure sizes the scratch for an n-node network, keeping existing
// stamps when already large enough.
func (sc *searchScratch) ensure(n int) {
	if len(sc.dist) < n {
		sc.dist = make([]int64, n)
		sc.prevArc = make([]int32, n)
		sc.stamp = make([]uint32, n)
		sc.epoch = 0
	}
}

// ensureSSP sizes the scratch the SSP routing loops fill up to the
// node count: the visited list, bucket queue and heap of a search (a
// phase's multi-source search can touch every node), the source list,
// and a phase's DFS path.  Sizing them once per network keeps warm
// solves allocation-free; engines that never search (costscaling full
// solves) skip it.
func (s *Solver) ensureSSP() {
	n := s.n
	if cap(s.ss.visited) >= n {
		return
	}
	s.ss.visited = make([]int32, 0, n)
	s.ss.q.ensure(n)
	s.ss.h.key = make([]int64, 0, n)
	s.ss.h.node = make([]int32, 0, n)
	s.sources = make([]int32, 0, n)
	s.path = make([]int32, 0, n)
}

// SearchScratchBytes estimates the search scratch an n-node network
// keeps once solved by ssp (or repaired by any engine): per node the
// stamped dist/prevArc/stamp entries, the visited list, a heap slot, a
// bucket-pool entry, the source list and a phase's DFS path; plus the
// bucket ring's head/tail arrays.  A search that pushes a node more
// than once grows the pool past n, so this is a floor, not a bound.
func SearchScratchBytes(n int) int64 {
	return int64(n)*(8+4+4+4+12+8+4+4) + 2*4*dialRing
}

// begin starts a fresh epoch for the stamped scratch.
func (sc *searchScratch) begin() {
	sc.epoch++
	if sc.epoch == 0 { // uint32 wraparound: invalidate all stamps
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
	sc.visited = sc.visited[:0]
}

// touch stamps node v into the current epoch.
func (sc *searchScratch) touch(v int32) {
	sc.stamp[v] = sc.epoch
	sc.dist[v] = inf
	sc.prevArc[v] = -1
	sc.visited = append(sc.visited, v)
}

// dijkstraHeap runs one shortest-path search on reduced costs from
// every node in srcs (each at distance 0) into s.ss on the inline
// 4-ary heap — the bucket search's fallback (shortestPath), with the
// same contract.  It reads (and never writes) the solver's residual arcs,
// potentials and the excess vector.  It fills
// ss.dist/ss.prevArc/ss.visited for the settled region and returns the
// first node with negative excess together with its distance, or
// target −1 when no deficit node is reachable.
func (s *Solver) dijkstraHeap(srcs []int32, excess []int64) (int32, int64) {
	sc := &s.ss
	sc.begin()
	sc.h.reset()
	for _, src := range srcs {
		sc.touch(src)
		sc.dist[src] = 0
		sc.h.push(0, src)
	}
	for !sc.h.empty() {
		d, u := sc.h.pop()
		if d > sc.dist[u] {
			continue // stale heap entry (lazy deletion)
		}
		if excess[u] < 0 {
			// Settling nodes at equal distance is unnecessary;
			// stop at the first deficit node for speed.
			return u, d
		}
		pu := s.pot[u]
		for _, ai := range s.arcsOf(int(u)) {
			a := &s.arcs[ai]
			if a.cap <= 0 {
				continue
			}
			v := a.to
			rc := a.cost + pu - s.pot[v]
			if rc < 0 {
				// Should not happen with valid potentials; clamp
				// defensively (can arise from ties after early exit).
				rc = 0
			}
			if sc.stamp[v] != sc.epoch {
				sc.touch(v)
			}
			if nd := d + rc; nd < sc.dist[v] {
				sc.dist[v] = nd
				sc.prevArc[v] = ai
				sc.h.push(nd, v)
			}
		}
	}
	return -1, 0
}

// updatePotentials applies the completed search in s.ss, truncated at
// the first deficit's distance dt: pot += dist − dt on settled nodes
// only (equivalent to the classic pot += min(dist, dt) up to a uniform
// −dt shift, which leaves every reduced cost unchanged).  Unvisited
// and unsettled nodes keep their potentials, so the update is
// O(visited), not O(n).  Every arc of the search's shortest-path tree
// into a settled node, and the tree arc into the deficit, then has
// reduced cost zero.
func (s *Solver) updatePotentials(dt int64) {
	sc := &s.ss
	for _, v := range sc.visited {
		if d := sc.dist[v]; d < dt {
			s.pot[v] += d - dt
		}
	}
}

// applyAugmentation commits the augmentation described by the
// completed single-source search in s.ss from src to target at
// shortest distance dt: the settled-only potential update, then the
// bottleneck push along the search tree's path.
func (s *Solver) applyAugmentation(src, target int32, dt int64, excess []int64) {
	s.updatePotentials(dt)
	sc := &s.ss
	// Bottleneck along the path.
	bott := excess[src]
	if -excess[target] < bott {
		bott = -excess[target]
	}
	for v := target; v != src; {
		ai := sc.prevArc[v]
		if s.arcs[ai].cap < bott {
			bott = s.arcs[ai].cap
		}
		v = s.arcs[ai^1].to
	}
	// Augment.
	for v := target; v != src; {
		ai := sc.prevArc[v]
		s.arcs[ai].cap -= bott
		s.arcs[ai^1].cap += bott
		v = s.arcs[ai^1].to
	}
	excess[src] -= bott
	excess[target] += bott
}
