package mcmf

// The 4-ary heap search the radix search is held to
// (FuzzSearchMatchesHeap): both pop in non-decreasing distance and
// differ only in how they break ties.

// dijkstraHeap is the radix search's test reference: one
// shortest-path search on reduced costs from every node in srcs (each
// at distance 0) on an inline 4-ary heap, with shortestPath's contract
// except for the order of ties.  It fills the node records' search
// fields and ss.visited for the settled region and returns the first
// node with negative excess together with its distance, or target −1
// when no deficit node is reachable.
func (s *Solver) dijkstraHeap(srcs []int32, excess []int64) (int32, int64) {
	sc := &s.ss
	var h heap4
	s.beginSearch()
	h.reset(s.n)
	for _, src := range srcs {
		s.touch(src)
		s.node[src].dist = 0
		h.push(0, src)
	}
	for !h.empty() {
		d, u := h.pop()
		if d > s.node[u].dist {
			continue // stale heap entry (lazy deletion)
		}
		if excess[u] < 0 {
			// Settling nodes at equal distance is unnecessary;
			// stop at the first deficit node for speed.
			return u, d
		}
		pu := s.node[u].pot
		base := s.csrStart[u]
		out := s.arcsOf(int(u))
		for k := range out {
			a := &out[k]
			if a.cap <= 0 {
				continue
			}
			v := a.to
			nv := &s.node[v]
			rc := a.cost + pu - nv.pot
			if rc < 0 {
				// Should not happen with valid potentials; clamp
				// defensively (can arise from ties after early exit).
				rc = 0
			}
			if nv.stamp != sc.epoch {
				s.touch(v)
			}
			if nd := d + rc; nd < nv.dist {
				nv.dist = nd
				nv.prev = base + int32(k)
				h.push(nd, v)
			}
		}
	}
	return -1, 0
}

// heap4 is an inline 4-ary min-heap on int64 keys with int32 payloads
// — parallel arrays, no interface boxing, no container/heap.  A 4-ary
// layout halves the tree depth of a binary heap, trading slightly more
// sibling comparisons (all in one cache line) for fewer levels touched
// per sift, which wins on the pop-heavy Dijkstra workload.  Stale
// entries are handled by the caller via lazy deletion.
type heap4 struct {
	key  []int64
	node []int32
}

// reset empties the heap, giving it room for n entries on first use.
func (h *heap4) reset(n int) {
	if cap(h.key) < n {
		h.key = make([]int64, 0, n)
		h.node = make([]int32, 0, n)
	}
	h.key = h.key[:0]
	h.node = h.node[:0]
}

func (h *heap4) empty() bool { return len(h.key) == 0 }

func (h *heap4) push(k int64, v int32) {
	h.key = append(h.key, k)
	h.node = append(h.node, v)
	i := len(h.key) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h.key[p] <= k {
			break
		}
		h.key[i], h.node[i] = h.key[p], h.node[p]
		i = p
	}
	h.key[i], h.node[i] = k, v
}

func (h *heap4) pop() (int64, int32) {
	k0, v0 := h.key[0], h.node[0]
	last := len(h.key) - 1
	k, v := h.key[last], h.node[last]
	h.key = h.key[:last]
	h.node = h.node[:last]
	if last > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= last {
				break
			}
			m := c
			end := c + 4
			if end > last {
				end = last
			}
			for j := c + 1; j < end; j++ {
				if h.key[j] < h.key[m] {
					m = j
				}
			}
			if h.key[m] >= k {
				break
			}
			h.key[i], h.node[i] = h.key[m], h.node[m]
			i = m
		}
		h.key[i], h.node[i] = k, v
	}
	return k0, v0
}
