package mcmf

import (
	"math/rand"
	"testing"
)

// FuzzBucketSearchMatchesHeap holds Dial's bucket search to the heap
// Dijkstra, search by search.  Each input builds a random residual
// network — some arcs saturated, some carrying flow, reduced costs
// from zero to far past the bucket ring — with valid potentials, and
// runs a series of multi-source searches toward random deficit sets on
// one Solver, so the bucket queue is reused across searches that exit
// early, exhaust the frontier or run out of rebases: a stale head,
// tail or pool entry left by one search would surface in a later one.
// Whenever the bucket search completes, it and dijkstraHeap must find
// the same target distance (or both none), and the same distance on
// every node either settles below it.
func FuzzBucketSearchMatchesHeap(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(0))
	f.Add(int64(2), uint8(40), uint8(3))
	f.Add(int64(3), uint8(90), uint8(40))
	f.Add(int64(4), uint8(200), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, size, huge uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(size)%120
		s := New(n)
		pot := make([]int64, n)
		for v := range pot {
			pot[v] = rng.Int63n(1 << 20)
		}
		reduced := func() int64 {
			switch {
			case rng.Intn(256) < int(huge): // beyond the ring: overflow and rebases
				return dialRing + rng.Int63n(1<<24)
			case rng.Intn(3) == 0:
				return 0
			default:
				return rng.Int63n(16)
			}
		}
		for k := 3 * n; k > 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			rc := reduced()
			cp := int64(1 + rng.Intn(9))
			if rng.Intn(6) == 0 {
				cp = 0
			}
			s.AddArc(u, v, cp, rc-pot[u]+pot[v])
		}
		s.prepare()
		s.ensureSSP()
		for v, p := range pot {
			s.node[v].pot = p
		}
		// Residuals: saturate a few arcs, and let zero-reduced-cost arcs
		// carry some flow (their reverse arcs then price at zero too).
		for id := range s.orig {
			fwd, rev := s.pair(id)
			rc := fwd.cost + pot[rev.to] - pot[fwd.to]
			if fwd.cap > 0 && rc == 0 && rng.Intn(2) == 0 {
				f := 1 + rng.Int63n(fwd.cap)
				fwd.cap -= f
				rev.cap += f
			} else if rng.Intn(8) == 0 {
				rev.cap += fwd.cap
				fwd.cap = 0
				if rc != 0 {
					rev.cap = 0 // a priced reverse arc would break the potentials
				}
			}
		}
		excess := make([]int64, n)
		settled := make(map[int32]int64)
		for search := 0; search < 12; search++ {
			for v := range excess {
				excess[v] = 0
				if rng.Intn(5) == 0 {
					excess[v] = -1
				}
			}
			var srcs []int32
			for k := 1 + rng.Intn(4); k > 0; k-- {
				v := int32(rng.Intn(n))
				if excess[v] == 0 {
					excess[v] = 1
					srcs = append(srcs, v)
				}
			}
			if len(srcs) == 0 {
				continue
			}
			target, dt, ok := s.bucketSearch(srcs, excess)
			if !ok {
				continue // rebase budget spent: the engine re-runs this on the heap
			}
			limit := dt
			if target < 0 {
				limit = inf
			}
			clear(settled)
			for _, v := range s.ss.visited {
				if d := s.node[v].dist; d < limit {
					settled[v] = d
				}
			}
			hTarget, hdt := s.dijkstraHeap(srcs, excess)
			if (target < 0) != (hTarget < 0) || (target >= 0 && dt != hdt) {
				t.Fatalf("search %d from %v: bucket target %d at %d, heap target %d at %d", search, srcs, target, dt, hTarget, hdt)
			}
			heapSettled := 0
			for _, v := range s.ss.visited {
				d := s.node[v].dist
				if d >= limit {
					continue
				}
				heapSettled++
				if bd, ok := settled[v]; !ok || bd != d {
					t.Fatalf("search %d: node %d at %d on the heap, bucket %d (settled %v)", search, v, d, bd, ok)
				}
			}
			if heapSettled != len(settled) {
				t.Fatalf("search %d: bucket settled %d nodes below %d, heap %d", search, len(settled), limit, heapSettled)
			}
		}
	})
}
