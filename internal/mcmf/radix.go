// The radix-heap search: the shortest-path search of ssp (Ahuja,
// Mehlhorn, Orlin & Tarjan, "Faster algorithms for the shortest path
// problem", JACM 1990; Ahuja, Magnanti & Orlin, Network Flows, §4.8).
//
// Dijkstra's pops never decrease, and that is all a monotone radix
// heap needs.  Bucket 0 holds the entries at the last popped minimum;
// bucket b ≥ 1 those whose distance first differs from it at bit b−1.
// A push is O(1): the bucket is the bit length of d XOR last.  When
// bucket 0 runs dry, the lowest non-empty bucket (an occupancy mask
// finds it) is scanned for its least distance, which becomes the new
// minimum, and its entries move down to lower buckets.  An entry
// only ever moves down, so a search costs O(pushes·log range) at
// worst; the D-phase networks' megascale reduced costs (slack windows
// integerized at 1e6) cost a few bucket moves, not a separate
// structure.
//
// Order contract: pops come in non-decreasing distance, and entries of
// equal distance pop in push order — they always share a bucket, a
// push appends at the bucket's tail, and a move relinks a bucket's
// entries in list order into buckets that are empty at the time.  An
// entry whose node has since improved is stale: it is skipped when it
// reaches bucket 0.  Searches stop at the first deficit popped, so this
// order decides which deficit ends a search and, with it, the
// tie-breaks of the potentials (the D-phase duals).  It is the order of
// Dial's bucket ring, which drained each distance FIFO: every search
// whose distances stayed within that ring's 4096-wide window pops the
// same nodes in the same order here.
//
// The buckets hold no storage of their own: each is a head/tail pair
// of indices into one pool of (distance, node, next) entries that the
// search appends to and the next search truncates, so the queue's
// memory is the largest search's push count and a warm solve allocates
// nothing.
//
// A relaxation reads the popped node's arcs, which lie contiguously in
// Solver.arcs (grouped by tail), then the head's node record, which
// holds its potential next to its search state (search.go); it records
// the tree arc as its position in Solver.arcs.
package mcmf

import "math/bits"

// radixBuckets is the bucket count: bucket b holds the distances whose
// XOR with the last minimum has bit length b, and every pushed distance
// lies below inf < 2^62.
const radixBuckets = 64

// radixEntry is one pool entry: the tentative distance a node was
// pushed at (so a stale entry is detectable without a settled marker),
// the node, and the pool index of the next entry of the same bucket
// (−1 at the tail).
type radixEntry struct {
	d    int64
	v    int32
	next int32
}

// radixHeap is the monotone radix heap.  A bucket's head and tail are
// valid only while its mask bit is set, so reset is O(1).
type radixHeap struct {
	head, tail [radixBuckets]int32
	mask       uint64       // occupancy: bit b set when bucket b holds entries
	last       int64        // the last popped minimum
	pool       []radixEntry // this search's entries, in push order
}

// reset empties the heap for a search from distance 0, keeping the
// pool's storage.
func (q *radixHeap) reset() {
	q.mask, q.last = 0, 0
	q.pool = q.pool[:0]
}

// push appends v at distance d ≥ last to the tail of its bucket.
func (q *radixHeap) push(d int64, v int32) {
	k := int32(len(q.pool))
	q.pool = append(q.pool, radixEntry{d: d, v: v, next: -1})
	q.link(bits.Len64(uint64(d^q.last)), k)
}

// link appends pool entry k, whose next is −1, to bucket b.
func (q *radixHeap) link(b int, k int32) {
	if q.mask&(1<<b) == 0 {
		q.head[b] = k
		q.mask |= 1 << b
	} else {
		q.pool[q.tail[b]].next = k
	}
	q.tail[b] = k
}

// advance refills the empty bucket 0: the least distance of the
// lowest non-empty bucket becomes the minimum, and that bucket's
// entries move down in list order.  Stale entries move with them and
// are dropped when bucket 0 drains.  It returns false when the heap is
// empty.
func (q *radixHeap) advance() bool {
	if q.mask == 0 {
		return false
	}
	b := bits.TrailingZeros64(q.mask)
	q.mask &^= 1 << b
	m := int64(inf)
	for k := q.head[b]; k >= 0; k = q.pool[k].next {
		m = min(m, q.pool[k].d)
	}
	q.last = m
	for k := q.head[b]; k >= 0; {
		e := &q.pool[k]
		next := e.next
		e.next = -1
		q.link(bits.Len64(uint64(e.d^m)), k)
		k = next
	}
	return true
}

// shortestPath runs one shortest-path search on reduced costs from
// every node in srcs (one source per augmentation in the per-source
// loop, all current sources in a phase), filling the node records'
// search fields and s.ss.visited for the settled region, and returns
// the first node with negative excess together with its distance, or
// target −1 when no deficit node is reachable.  It runs the radix
// search, or the heap when the search is pinned there
// (SetEngineFallback's rescue).
func (s *Solver) shortestPath(srcs []int32, excess []int64) (int32, int64) {
	if s.ss.heapOnly {
		return s.dijkstraHeap(srcs, excess)
	}
	return s.radixSearch(srcs, excess)
}

// radixSearch is the radix-heap Dijkstra from every node in srcs, with
// shortestPath's contract.
func (s *Solver) radixSearch(srcs []int32, excess []int64) (int32, int64) {
	sc := &s.ss
	q := &sc.q
	s.beginSearch()
	q.reset()
	for _, src := range srcs {
		s.touch(src)
		s.node[src].dist = 0
		q.push(0, src)
	}
	for q.mask&1 != 0 || q.advance() {
		d := q.last
		// Drain bucket 0 FIFO, including entries appended while it
		// drains (a zero reduced cost pushes onto its tail, and the walk
		// reads next only after the relaxations).  Order matters
		// enormously for the early exit: FIFO explores the
		// zero-reduced-cost region breadth-first and reaches the
		// (typically adjacent) deficit node after a neighbourhood-sized
		// scan, where LIFO would walk the entire region depth-first
		// before surfacing it.
		for k := q.head[0]; k >= 0; k = q.pool[k].next {
			u := q.pool[k].v
			nu := &s.node[u]
			if nu.dist != d {
				continue // stale entry (node improved to a smaller distance)
			}
			if excess[u] < 0 {
				return u, d
			}
			pu := nu.pot
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
					rc = 0 // see dijkstraHeap: tie artifacts after early exit
				}
				if nv.stamp != sc.epoch {
					s.touch(v)
				}
				if nd := d + rc; nd < nv.dist {
					nv.dist = nd
					nv.prev = base + int32(k)
					q.push(nd, v)
				}
			}
		}
		q.mask &^= 1 // bucket 0 drained
	}
	return -1, 0
}
