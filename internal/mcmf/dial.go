// Dial's bucket search: the shortest-path search of ssp,
// with the heap Dijkstra (search.go) as its fallback (Ahuja, Magnanti
// & Orlin, Network Flows, §4.6).
//
// The D-phase instances this package serves have two properties the
// general heap Dijkstra cannot exploit: reduced costs along the paths
// actually travelled are small non-negative integers (warm-started
// potentials absorb the raw cost magnitude, concentrating reduced
// costs near zero), and the searches stop at the first deficit node,
// so settled distances stay tiny.  Dial's algorithm replaces the
// O(log n) heap with a ring of FIFO buckets indexed by distance
// modulo the ring size: push is O(1), pop scans the ring forward.
//
// Individual arcs can still carry huge reduced costs (slack window
// constraints integerized at 1e6 keep megascale costs even after
// warm-starting), so the ring cannot be sized to the maximum arc
// weight the way textbook Dial is.  Instead the ring size is fixed
// and relaxations that land beyond the ring horizon go to an
// unsorted overflow list; when the ring drains, the search rebases:
// settled overflow entries are dropped, the minimum pending distance
// becomes the new scan position, and entries within the new horizon
// move into the ring.  Warm searches never rebase — they terminate
// within a few buckets — while cold searches with many megascale
// distances burn a bounded rebase budget and then fall back to the
// heap for that search (counted in Stats.HeapFallbacks).
//
// The buckets hold no storage of their own: each is a head/tail pair
// of indices into one pool of (node, next) entries that the search
// appends to and the next search truncates, so the queue's memory is
// the largest search's push count, not a per-bucket high-water mark.
//
// A relaxation reads the popped node's arcs, which lie contiguously in
// Solver.arcs (grouped by tail), then the head's node record, which
// holds its potential next to its search state (search.go); it records
// the tree arc as its position in Solver.arcs.
package mcmf

import "math/bits"

// dialRing is the fixed bucket count.  It bounds the distance window
// the ring represents: relaxations within [d, d+dialRing) of the scan
// position are O(1) bucket pushes, anything farther overflows.
const dialRing = 4096

// dialMaxRebases bounds how often one search may rebase before
// falling back to the heap.  Warm searches terminate without rebasing
// at all, so a handful of rebases is already a sign the frontier
// lives at heap-shaped distances.
const dialMaxRebases = 8

// dialMaxSkip caps the adaptive back-off (in searches skipped).
const dialMaxSkip = 256

// ovEntry is one overflow entry: a node plus the tentative distance it
// was pushed at, so stale entries (the node has since improved) are
// detectable without a settled marker.
type ovEntry struct {
	d int64
	v int32
}

// qEntry is one bucket entry in the pool: a node and the pool index
// of the next entry of the same bucket (−1 at the tail).
type qEntry struct {
	v, next int32
}

// bucketQueue is the Dial ring with its overflow list.  Between
// searches it is empty: every head is −1, the mask is clear and the
// pool, used and overflow lists have length zero.
type bucketQueue struct {
	head, tail []int32               // per bucket: first and last pool entry, −1 when empty
	mask       [dialRing / 64]uint64 // occupancy bitmap: which buckets are nonempty
	used       []int32               // ring indices holding entries (for O(used) flush)
	pool       []qEntry              // this search's bucket entries, in push order
	overflow   []ovEntry             // entries whose tentative dist lies beyond the horizon
	ovMin      int64                 // min stored distance in overflow (inf when empty)
	pending    int                   // entries currently in the ring
}

// ensure allocates the ring's head/tail arrays once and gives the pool
// room for an n-node search.
func (q *bucketQueue) ensure(n int) {
	if q.head == nil {
		q.head = make([]int32, dialRing)
		q.tail = make([]int32, dialRing)
		for i := range q.head {
			q.head[i] = -1
		}
	}
	if cap(q.pool) < n {
		q.pool = make([]qEntry, 0, n)
	}
}

// shortestPath runs one shortest-path search on reduced costs from
// every node in srcs (one source per augmentation in the per-source
// loop, all current sources in a phase), filling the search scratch
// s.ss for the settled region, and returns the first node with
// negative excess together with its distance, or target −1 when no
// deficit node is reachable.  It runs the bucket search, and the heap
// when the search is pinned there (SetEngineFallback's rescue), while
// the back-off after a fallback lasts, or when the bucket search
// exceeds its rebase budget.
func (s *Solver) shortestPath(srcs []int32, excess []int64, st *Stats) (int32, int64) {
	sc := &s.ss
	if sc.heapOnly {
		return s.dijkstraHeap(srcs, excess)
	}
	if sc.skip > 0 {
		sc.skip--
		return s.dijkstraHeap(srcs, excess)
	}
	target, dt, ok := s.bucketSearch(srcs, excess)
	if !ok {
		// The rebase budget ran out (a cold search spreading over a
		// huge distance range): redo this search on the heap and back
		// off — the next skipLen searches go straight to the heap,
		// doubling while fallbacks persist, so heap-shaped solve
		// phases pay almost no bucket tax.  A successful bucket search
		// resets the back-off.
		st.HeapFallbacks++
		sc.skipLen = min(2*sc.skipLen+1, dialMaxSkip)
		sc.skip = sc.skipLen
		return s.dijkstraHeap(srcs, excess)
	}
	sc.skipLen = 0
	return target, dt
}

// bucketSearch is the bucket-queue Dijkstra from every node in srcs.
// ok is false when the search exceeded its merge budget (the caller
// retries on the heap).
//
// Queue discipline: the ring holds tentative distances in
// [d, d+dialRing); farther relaxations go to the overflow list with
// their push-time distance, and ovMin tracks the smallest of them.
// The scan NEVER advances past ovMin — when the next occupied ring
// bucket lies beyond it (or the ring is empty), the overflow is
// merged first: stale entries (node since improved) are dropped,
// entries inside the new window move into the ring, and the rest stay
// with a recomputed ovMin.  This keeps strict Dijkstra order: no node
// is ever settled at a distance above an unsettled tentative one, so
// overflow entries can never be orphaned behind the scan position.
func (s *Solver) bucketSearch(srcs []int32, excess []int64) (target int32, dt int64, ok bool) {
	sc := &s.ss
	q := &sc.q
	s.beginSearch()
	for _, src := range srcs {
		s.touch(src)
		s.node[src].dist = 0
		q.push(0, src)
	}
	q.ovMin = inf
	d := int64(0)
	// Every merge rescans the overflow list, so a search whose
	// frontier lives mostly beyond the horizon degenerates to
	// O(merges·overflow); the budget hands such searches to the heap
	// after a few attempts.
	budget := dialMaxRebases
	for {
		next := int64(inf)
		if q.pending > 0 {
			next = q.nextOccupied(d)
		}
		if q.ovMin < next {
			// The nearest pending distance lives in the overflow:
			// merge before advancing the scan past it.
			budget--
			if budget < 0 {
				q.flush()
				return -1, 0, false
			}
			d = q.mergeOverflow(s, q.ovMin)
			continue
		}
		if q.pending == 0 {
			q.flush()
			return -1, 0, true // frontier exhausted: no deficit reachable
		}
		d = next
		i := d % dialRing
		// Drain the bucket FIFO, including entries appended while it
		// drains (a zero reduced cost pushes onto this same bucket's
		// tail, and the walk reads next only after the relaxations).
		// Order matters enormously for the early exit: FIFO explores
		// the zero-reduced-cost region breadth-first and reaches the
		// (typically adjacent) deficit node after a neighbourhood-sized
		// scan, where LIFO would walk the entire region depth-first
		// before surfacing it.
		for k := q.head[i]; k >= 0; k = q.pool[k].next {
			u := q.pool[k].v
			q.pending--
			nu := &s.node[u]
			if nu.dist != d {
				continue // stale entry (node improved to a smaller distance)
			}
			if excess[u] < 0 {
				q.flush()
				return u, d, true
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
					if nd-d < dialRing {
						q.push(nd, v)
					} else {
						q.overflow = append(q.overflow, ovEntry{d: nd, v: v})
						if nd < q.ovMin {
							q.ovMin = nd
						}
					}
				}
			}
		}
		q.head[i] = -1
		q.mask[i>>6] &^= 1 << (i & 63) // bucket drained
		d++
	}
}

// mergeOverflow rebases the scan at base (= the overflow minimum):
// stale entries are dropped, live entries within [base, base+dialRing)
// move into the ring, the rest stay and ovMin is recomputed.  Every
// ring entry already exceeds base (the caller only merges when the
// next occupied bucket is beyond ovMin) and sits below the previous
// scan position + dialRing ≤ base + dialRing, so the re-based window
// cannot collide modulo the ring size.  Returns the new scan position.
func (q *bucketQueue) mergeOverflow(s *Solver, base int64) int64 {
	kept := q.overflow[:0]
	q.ovMin = inf
	for _, e := range q.overflow {
		if s.node[e.v].dist != e.d {
			continue // stale: the node improved into the ring meanwhile
		}
		if e.d-base < dialRing {
			q.push(e.d, e.v)
		} else {
			kept = append(kept, e)
			if e.d < q.ovMin {
				q.ovMin = e.d
			}
		}
	}
	q.overflow = kept
	return base
}

// nextOccupied returns the smallest distance ≥ d whose bucket holds an
// entry.  The caller guarantees pending > 0, so a set bit exists
// within the ring window [d, d+dialRing).
func (q *bucketQueue) nextOccupied(d int64) int64 {
	start := int(d % dialRing)
	w, b := start>>6, start&63
	if rest := q.mask[w] >> b; rest != 0 {
		return d + int64(bits.TrailingZeros64(rest))
	}
	for off := 1; off <= len(q.mask); off++ {
		word := q.mask[(w+off)%len(q.mask)]
		if word != 0 {
			idx := ((w+off)%len(q.mask))<<6 + bits.TrailingZeros64(word)
			return d + int64((idx-start+dialRing)%dialRing)
		}
	}
	return d // unreachable with pending > 0
}

// push appends v at the tail of the bucket for distance d.
func (q *bucketQueue) push(d int64, v int32) {
	i := d % dialRing
	k := int32(len(q.pool))
	q.pool = append(q.pool, qEntry{v: v, next: -1})
	if q.head[i] < 0 {
		q.head[i] = k
		q.used = append(q.used, int32(i))
		q.mask[i>>6] |= 1 << (i & 63)
	} else {
		q.pool[q.tail[i]].next = k
	}
	q.tail[i] = k
	q.pending++
}

// flush empties every touched bucket, the pool and the overflow list
// (early exits leave entries behind; the queue must be clean for the
// next search).
func (q *bucketQueue) flush() {
	for _, i := range q.used {
		q.head[i] = -1
		q.mask[i>>6] &^= 1 << (i & 63)
	}
	q.used = q.used[:0]
	q.pool = q.pool[:0]
	q.overflow = q.overflow[:0]
	q.ovMin = inf
	q.pending = 0
}
