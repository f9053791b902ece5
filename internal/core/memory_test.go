package core

import (
	"context"
	"runtime"
	"testing"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSessionMemoryAccounting holds Session.MemoryBytes to the heap a
// session really keeps: on mult8 and adder32 sessions on the default
// engine, built and then driven through a cold anchor and 20 warm
// trust-region queries, the live-heap growth must lie within 2× of
// the estimate either way — and again after a walk of far jumps that
// fills the library of converged sizings.  minflod's eviction
// watermark trusts the estimate, so state the estimate misses (a flow
// engine's scratch growing per query, say) would let sessions outgrow
// it unseen.  The trust region is 2% so that the filling walk stays in
// feasible targets.
func TestSessionMemoryAccounting(t *testing.T) {
	for _, name := range []string{"mult8", "adder32"} {
		t.Run(name, func(t *testing.T) {
			base := liveHeap()
			p := mustProblem(t, name)
			sess, err := NewSession(p, Options{TrustRegion: 0.02})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			tmin := minCP(t, p)
			built := liveHeap()
			// A cold anchor, then targets within ±0.5% of it: every
			// query after the anchor is seeded warm.
			for q := 0; q <= 20; q++ {
				f := 0.6 + 0.001*float64(q%11-5)
				if q == 0 {
					f = 0.6
				}
				if _, err := sess.Resize(context.Background(), f*tmin, Budgets{}); err != nil {
					t.Fatalf("query %d: %v", q, err)
				}
			}
			check := func(what string) int64 {
				grown := liveHeap() - base
				est := sess.MemoryBytes()
				t.Logf("%s %s: estimate %.2f MB, live heap +%.2f MB (+%.2f MB since the build)",
					name, what, float64(est)/1e6, float64(grown)/1e6, float64(grown-(built-base))/1e6)
				if grown > 2*est || 2*grown < est {
					t.Fatalf("%s %s: live heap grew %d bytes, estimate %d: not within 2×", name, what, grown, est)
				}
				return est
			}
			warm := check("after 21 queries")
			// Far jumps 2.5% apart from 0.63·Dmin up: each files the
			// previous answer, libCap+1 filings fill the library and evict
			// once.
			f := 0.63
			for k := 0; k <= libCap; k++ {
				r, err := sess.Resize(context.Background(), f*tmin, Budgets{})
				if err != nil {
					t.Fatalf("jump %d: %v", k, err)
				}
				if !r.FarSeed {
					t.Fatalf("jump %d to %.3f·Dmin: not a far jump", k, f)
				}
				f *= 1.025
			}
			if len(sess.lib) != libCap {
				t.Fatalf("library holds %d entries after %d filings, want %d", len(sess.lib), libCap+1, libCap)
			}
			if full := check("with a full library"); full <= warm {
				t.Fatalf("estimate %d with a full library, %d without: the entries are not counted", full, warm)
			}
		})
	}
}
