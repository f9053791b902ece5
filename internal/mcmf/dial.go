// Dial/bucket-queue successive shortest paths.
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
// heap for that augmentation (counted in Stats.DialFallbacks).
package mcmf

import "math/bits"

// dialRing is the fixed bucket count.  It bounds the distance window
// the ring represents: relaxations within [d, d+dialRing) of the scan
// position are O(1) bucket pushes, anything farther overflows.
const dialRing = 4096

type dialEngine struct {
	engineCore
	pf dialFinder

	// Saved adaptive back-off for abort rollback (attemptStateKeeper):
	// an aborted attempt may have advanced skip/skipLen, which decides
	// heap-vs-bucket searches — and with them tie-breaking — on the
	// next solve, so bit-identical twins require restoring them.
	savedSkip    int
	savedSkipLen int
}

func (e *dialEngine) Name() string { return "dial" }

// SaveAttemptState / RestoreAttemptState roll the adaptive heap
// back-off across aborted attempts (see abort.go).
func (e *dialEngine) SaveAttemptState() {
	e.savedSkip, e.savedSkipLen = e.pf.skip, e.pf.skipLen
}

func (e *dialEngine) RestoreAttemptState() {
	e.pf.skip, e.pf.skipLen = e.savedSkip, e.savedSkipLen
}

func (e *dialEngine) Solve(s *Solver) (float64, error) {
	e.pf.st = &e.st
	return solveSSPFull(s, &e.pf, &e.st)
}

func (e *dialEngine) Resolve(s *Solver, changed []int32) (float64, error) {
	e.pf.st = &e.st
	return resolveSSP(s, changed, &e.pf, &e.st, e.Solve)
}

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

// dialFinder is the bucket-queue pathFinder with overflow handling and
// heap fallback.
type dialFinder struct {
	st       *Stats
	buckets  [dialRing][]int32     // distance ring, index = dist mod dialRing
	mask     [dialRing / 64]uint64 // occupancy bitmap: which buckets are nonempty
	used     []int32               // ring indices holding entries (for O(used) flush)
	overflow []ovEntry             // entries whose tentative dist lies beyond the horizon
	ovMin    int64                 // min stored distance in overflow (inf when empty)
	pending  int                   // entries currently in the ring

	// Adaptive back-off: after a fallback the next skip searches run
	// directly on the heap (doubling up to dialMaxSkip while fallbacks
	// persist), so heap-shaped solve phases pay almost no dial tax;
	// a successful bucket search resets the back-off.
	skip    int
	skipLen int
}

// dialSeedCap is the initial per-bucket capacity carved out of one
// shared backing array: buckets grow individually past it, but the
// common case — a few entries per touched bucket — never allocates,
// where nil buckets would each pay several growth reallocations
// (measured as the dominant allocator of a sizing run).
const dialSeedCap = 8

func (f *dialFinder) shortestPath(s *Solver, srcs []int32, excess []int64) (int32, int64) {
	if f.skip > 0 {
		f.skip--
		return heapFinder{}.shortestPath(s, srcs, excess)
	}
	if f.buckets[0] == nil {
		backing := make([]int32, dialRing*dialSeedCap)
		for i := range f.buckets {
			lo := i * dialSeedCap
			f.buckets[i] = backing[lo : lo : lo+dialSeedCap]
		}
	}
	target, dt, ok := f.dialSearch(s, srcs, excess)
	if !ok {
		// The rebase budget ran out (a cold search spreading over a
		// huge distance range): redo this augmentation on the heap and
		// back off.
		f.st.DialFallbacks++
		f.skipLen = min(2*f.skipLen+1, dialMaxSkip)
		f.skip = f.skipLen
		return heapFinder{}.shortestPath(s, srcs, excess)
	}
	f.skipLen = 0
	return target, dt
}

// dialSearch is the bucket-queue Dijkstra from every node in srcs.  ok
// is false when the search exceeded its merge budget (the caller
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
func (f *dialFinder) dialSearch(s *Solver, srcs []int32, excess []int64) (target int32, dt int64, ok bool) {
	s.ss.begin()
	for _, src := range srcs {
		s.ss.touch(src)
		s.ss.dist[src] = 0
		f.push(0, src)
	}
	f.ovMin = inf
	d := int64(0)
	// Every merge rescans the overflow list, so a search whose
	// frontier lives mostly beyond the horizon degenerates to
	// O(merges·overflow); the budget hands such searches to the heap
	// after a few attempts.
	budget := dialMaxRebases
	for {
		next := int64(inf)
		if f.pending > 0 {
			next = f.nextOccupied(d)
		}
		if f.ovMin < next {
			// The nearest pending distance lives in the overflow:
			// merge before advancing the scan past it.
			budget--
			if budget < 0 {
				f.flush()
				return -1, 0, false
			}
			d = f.mergeOverflow(s, f.ovMin)
			continue
		}
		if f.pending == 0 {
			f.flush()
			return -1, 0, true // frontier exhausted: no deficit reachable
		}
		d = next
		b := &f.buckets[d%dialRing]
		// Drain the bucket FIFO (including entries appended while it
		// drains).  Order matters enormously for the early exit: FIFO
		// explores the zero-reduced-cost region breadth-first and
		// reaches the (typically adjacent) deficit node after a
		// neighbourhood-sized scan, where LIFO would walk the entire
		// region depth-first before surfacing it.
		for k := 0; k < len(*b); k++ {
			u := (*b)[k]
			f.pending--
			if s.ss.dist[u] != d {
				continue // stale entry (node improved to a smaller distance)
			}
			if excess[u] < 0 {
				f.flush()
				return u, d, true
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
					rc = 0 // see heapFinder: tie artifacts after early exit
				}
				if s.ss.stamp[v] != s.ss.epoch {
					s.ss.touch(v)
				}
				if nd := d + rc; nd < s.ss.dist[v] {
					s.ss.dist[v] = nd
					s.ss.prevArc[v] = ai
					if nd-d < dialRing {
						f.push(nd, v)
					} else {
						f.overflow = append(f.overflow, ovEntry{d: nd, v: v})
						if nd < f.ovMin {
							f.ovMin = nd
						}
					}
				}
			}
		}
		*b = (*b)[:0]
		i := d % dialRing
		f.mask[i>>6] &^= 1 << (i & 63) // bucket drained
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
func (f *dialFinder) mergeOverflow(s *Solver, base int64) int64 {
	kept := f.overflow[:0]
	f.ovMin = inf
	for _, e := range f.overflow {
		if s.ss.dist[e.v] != e.d {
			continue // stale: the node improved into the ring meanwhile
		}
		if e.d-base < dialRing {
			f.push(e.d, e.v)
		} else {
			kept = append(kept, e)
			if e.d < f.ovMin {
				f.ovMin = e.d
			}
		}
	}
	f.overflow = kept
	return base
}

// nextOccupied returns the smallest distance ≥ d whose bucket holds an
// entry.  The caller guarantees pending > 0, so a set bit exists
// within the ring window [d, d+dialRing).
func (f *dialFinder) nextOccupied(d int64) int64 {
	start := int(d % dialRing)
	w, b := start>>6, start&63
	if rest := f.mask[w] >> b; rest != 0 {
		return d + int64(bits.TrailingZeros64(rest))
	}
	for off := 1; off <= len(f.mask); off++ {
		word := f.mask[(w+off)%len(f.mask)]
		if word != 0 {
			idx := ((w+off)%len(f.mask))<<6 + bits.TrailingZeros64(word)
			return d + int64((idx-start+dialRing)%dialRing)
		}
	}
	return d // unreachable with pending > 0
}

func (f *dialFinder) push(d int64, v int32) {
	i := d % dialRing
	if len(f.buckets[i]) == 0 {
		f.used = append(f.used, int32(i))
	}
	f.buckets[i] = append(f.buckets[i], v)
	f.mask[i>>6] |= 1 << (i & 63)
	f.pending++
}

// flush empties every touched bucket and the overflow list (early
// exits leave entries behind; the queue must be clean for the next
// search).
func (f *dialFinder) flush() {
	for _, i := range f.used {
		f.buckets[i] = f.buckets[i][:0]
		f.mask[i>>6] &^= 1 << (i & 63)
	}
	f.used = f.used[:0]
	f.overflow = f.overflow[:0]
	f.ovMin = inf
	f.pending = 0
}
