package mcmf

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// FuzzSearchMatchesHeap holds the radix search to the heap Dijkstra,
// search by search.  Each input builds a random residual network —
// some arcs saturated, some carrying flow, reduced costs from zero up
// to 2^40, so distances reach the radix heap's high buckets — with
// valid potentials, and runs a series of multi-source searches toward
// random deficit sets on one Solver, so the radix heap is reused
// across searches that exit early or exhaust the frontier: a stale
// head, tail, mask bit or pool entry left by one search would surface
// in a later one.  The radix search and dijkstraHeap must find the
// same target distance (or both none), and the same distance on every
// node either settles below it.
func FuzzSearchMatchesHeap(f *testing.F) {
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
			case rng.Intn(256) < int(huge): // far: the high buckets
				return rng.Int63n(1 << 40)
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
			target, dt := s.radixSearch(srcs, excess)
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
				t.Fatalf("search %d from %v: radix target %d at %d, heap target %d at %d", search, srcs, target, dt, hTarget, hdt)
			}
			heapSettled := 0
			for _, v := range s.ss.visited {
				d := s.node[v].dist
				if d >= limit {
					continue
				}
				heapSettled++
				if bd, ok := settled[v]; !ok || bd != d {
					t.Fatalf("search %d: node %d at %d on the heap, radix %d (settled %v)", search, v, d, bd, ok)
				}
			}
			if heapSettled != len(settled) {
				t.Fatalf("search %d: radix settled %d nodes below %d, heap %d", search, len(settled), limit, heapSettled)
			}
		}
	})
}

// TestRadixHeapOrder holds the radix heap to its order contract on
// random Dijkstra-shaped runs: every pop of a live entry may push
// entries at its own distance, a little farther, or at far distances
// up to 2^41 that many pops share, and some pushes improve a node
// already queued, which leaves its earlier entry stale.  Drained the
// way radixSearch drains it, the heap must pop exactly each node's
// last entry, in non-decreasing distance and, among equal distances,
// in push order (the pool index) — also for entries that were pushed
// far and moved down — and never a stale entry.  The heap is reused
// across runs, as a Solver reuses it across searches.
func TestRadixHeapOrder(t *testing.T) {
	var q radixHeap
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(300)
		node := make([]nodeState, n)
		for v := range node {
			node[v].dist = inf
		}
		far := []int64{1 << 40, 1<<40 + 1, 3 << 39, 1<<41 - 5}
		settled := make([]bool, n)
		last := make([]int32, n) // each node's latest pool entry
		push := func(d int64, v int32) {
			if settled[v] || d >= node[v].dist {
				return
			}
			node[v].dist = d
			last[v] = int32(len(q.pool))
			q.push(d, v)
		}
		q.reset()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			push(0, int32(rng.Intn(n)))
		}
		type pop struct {
			d int64
			k int32
		}
		var pops []pop
		for q.mask&1 != 0 || q.advance() {
			d := q.last
			for k := q.head[0]; k >= 0; k = q.pool[k].next {
				u := q.pool[k].v
				if node[u].dist != d {
					continue // stale
				}
				if q.pool[k].d != d || last[u] != k || settled[u] {
					t.Fatalf("seed %d: popped entry %d (node %d at %d) at minimum %d; node's last entry %d, settled %v",
						seed, k, u, q.pool[k].d, d, last[u], settled[u])
				}
				settled[u] = true
				pops = append(pops, pop{d, k})
				for m := rng.Intn(4); m > 0; m-- {
					v := int32(rng.Intn(n))
					switch rng.Intn(4) {
					case 0:
						push(d, v)
					case 1:
						push(d+1+rng.Int63n(40), v)
					default:
						if f := far[rng.Intn(len(far))]; f >= d {
							push(f, v)
						} else {
							push(d+rng.Int63n(1<<40), v)
						}
					}
				}
			}
			q.mask &^= 1
		}
		var want []pop
		for v := range node {
			if node[v].dist < inf {
				want = append(want, pop{node[v].dist, last[v]})
				if !settled[v] {
					t.Fatalf("seed %d: node %d queued at %d never popped", seed, v, node[v].dist)
				}
			}
		}
		slices.SortFunc(want, func(a, b pop) int {
			return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.k, b.k))
		})
		for i := range want {
			if i >= len(pops) || pops[i] != want[i] {
				t.Fatalf("seed %d: pop %d of %d is %v, want (distance, push order) %v", seed, i, len(want), pops[i:min(i+3, len(pops))], want[i:min(i+3, len(want))])
			}
		}
		if len(pops) != len(want) {
			t.Fatalf("seed %d: %d pops, want %d", seed, len(pops), len(want))
		}
	}
}
