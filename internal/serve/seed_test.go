package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minflo"
	"minflo/internal/fault"
)

// waitStats polls /stats until cond holds (the serve path has no
// synchronous hooks to latch onto; the counters are the observable).
func waitStats(t *testing.T, c *Client, what string, cond func(*StatsResponse) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st, err := c.Stats(context.Background()); err == nil && cond(st) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServeTrustRegionSeedField: with the trust region enabled, the
// per-query seed provenance reaches the wire — cold anchor answers
// "tilos", a small refinement answers "warm" — and the stats counters
// record the seeded total.
func TestServeTrustRegionSeedField(t *testing.T) {
	_, _, c := newTestServer(t, Config{TrustRegion: 0.05})
	sub := submitCircuit(t, c, "tr", "adder16")

	q0, err := c.Query(context.Background(), "tr", &QueryRequest{TargetPS: 0.6 * sub.MinDelayPS})
	if err != nil {
		t.Fatal(err)
	}
	if q0.Seed != "tilos" {
		t.Fatalf("anchor Seed = %q, want tilos", q0.Seed)
	}
	q1, err := c.Query(context.Background(), "tr", &QueryRequest{TargetPS: 0.601 * sub.MinDelayPS})
	if err != nil {
		t.Fatal(err)
	}
	if q1.Seed != "warm" {
		t.Fatalf("refinement Seed = %q, want warm", q1.Seed)
	}
	if q1.CPPS > 0.601*sub.MinDelayPS*(1+1e-9) {
		t.Fatalf("seeded answer CP %g violates target", q1.CPPS)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Seeded != 1 {
		t.Fatalf("stats seeded_total = %d, want 1", st.Seeded)
	}
	// A jump far beyond δ goes cold again, without a fallback (the
	// policy never armed).
	q2, err := c.Query(context.Background(), "tr", &QueryRequest{TargetPS: 0.75 * sub.MinDelayPS})
	if err != nil {
		t.Fatal(err)
	}
	if q2.Seed != "tilos" || q2.SeedFallback {
		t.Fatalf("jump query Seed = %q fallback = %v, want cold/no-fallback", q2.Seed, q2.SeedFallback)
	}
}

// TestServeStatsMatchResponses: the /stats provenance counters are
// sums over the answers clients received.  One session with trust-region
// seeding and cone-local re-sizing runs load edits (cone-answered ones,
// cone fallbacks, and one over the edit cone budget), refinement queries
// and a jump outside the trust region; every counter must equal the
// count over the responses returned.
func TestServeStatsMatchResponses(t *testing.T) {
	_, _, c := newTestServer(t, Config{TrustRegion: 0.05, EditConeResize: true})
	ctx := context.Background()
	sub := submitCircuit(t, c, "st", "adder16")

	var want StatsResponse
	query := func(f float64) {
		t.Helper()
		q, err := c.Query(ctx, "st", &QueryRequest{TargetPS: f * sub.MinDelayPS})
		if err != nil {
			t.Fatalf("query %g: %v", f, err)
		}
		switch q.Seed {
		case "warm":
			want.Seeded++
		case "cone":
			want.ConeResizes++
		}
		if q.SeedFallback {
			want.SeedFallbacks++
		}
		if q.ConeFallback {
			want.ConeFallbacks++
		}
	}
	edit := func(gate int, load float64) {
		t.Helper()
		e, err := c.Edit(ctx, "st", &EditRequest{Edits: []EditOp{{Op: "load", Gate: gate, LoadFF: load}}})
		if err != nil {
			t.Fatalf("edit gate %d: %v", gate, err)
		}
		want.Edits++
		if e.Fallback {
			want.EditFallbacks++
		}
	}

	ckt, err := minflo.CircuitByName("adder16")
	if err != nil {
		t.Fatal(err)
	}
	// A load on the bit-0 sum output stays cone-local; one on the last
	// gate recruits the carry chain, and the cone falls back.
	local, chain := ckt.POs[0].Index, sub.NumGates-1

	query(0.6)
	for k, f := range []float64{0.601, 0.599, 0.6, 0.602} {
		query(f)
		edit(local, 2+float64(k))
		query(f)
		edit(chain, 5+float64(k))
		query(f)
	}
	edit(0, 30) // gate 0 drives most of the circuit: over the cone budget
	query(0.6)
	query(0.75) // outside the trust region
	edit(chain, 0)
	query(0.751)

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := StatsResponse{
		Seeded: st.Seeded, SeedFallbacks: st.SeedFallbacks,
		ConeResizes: st.ConeResizes, ConeFallbacks: st.ConeFallbacks,
		Edits: st.Edits, EditFallbacks: st.EditFallbacks,
	}
	if got != want {
		t.Fatalf("stats %+v, want the response sums %+v", got, want)
	}
	if want.Seeded == 0 || want.ConeResizes == 0 || want.ConeFallbacks == 0 || want.EditFallbacks == 0 {
		t.Fatalf("workload did not exercise the warm, cone, cone-fallback and edit-fallback paths: %+v", want)
	}
	t.Logf("response sums: %+v", want)
}

// TestServeCoalescing: identical queries arriving while their twin is
// still queued are answered by one solve — the singleflight path.  A
// blocked solve holds the worker so the burst deterministically lands
// behind one queued job.
func TestServeCoalescing(t *testing.T) {
	_, hs, c, faults := newFaultServer(t, Config{MaxInFlight: 1}, "a")
	sub, err := c.Submit(context.Background(), &SubmitRequest{ID: "a", Circuit: "adder16"})
	if err != nil {
		t.Fatal(err)
	}

	// Park the worker inside a first, distinct query.
	release := make(chan struct{})
	faults.set(fault.Plan{Mode: fault.Cancel, Op: 1, OnCancel: func() { <-release }})
	var blocker sync.WaitGroup
	blocker.Add(1)
	go func() {
		defer blocker.Done()
		_, _ = c.Query(context.Background(), "a", &QueryRequest{TargetPS: 0.55 * sub.MinDelayPS})
	}()

	// Wait until the blocker is executing (busy worker, empty queue).
	waitStats(t, c, "blocker to start executing", func(st *StatsResponse) bool { return st.InFlight >= 1 })

	// Three byte-identical queries: the first enqueues, the other two
	// must attach to it instead of consuming queue slots.
	const n = 3
	body := fmt.Sprintf(`{"target_ps": %g}`, 0.6*sub.MinDelayPS)
	var wg sync.WaitGroup
	var coalesced, solved atomic.Int64
	seqs := make([]int, n)
	areas := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/v1/sessions/a/query", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			var qr QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				t.Error(err)
				return
			}
			seqs[i] = qr.Seq
			areas[i] = qr.Area
			if qr.Coalesced {
				coalesced.Add(1)
			} else {
				solved.Add(1)
			}
		}(i)
	}
	// All four queries admitted (1 blocker + 1 queued + 2 attached) —
	// only then release, so the attach window is deterministic.
	waitStats(t, c, "burst admission", func(st *StatsResponse) bool { return st.Queries >= 4 })
	close(release)
	wg.Wait()
	blocker.Wait()

	if solved.Load() != 1 || coalesced.Load() != n-1 {
		t.Fatalf("solved=%d coalesced=%d, want 1/%d", solved.Load(), coalesced.Load(), n-1)
	}
	for i := 1; i < n; i++ {
		if seqs[i] != seqs[0] || areas[i] != areas[0] {
			t.Fatalf("coalesced replies diverged: seq %v area %v", seqs, areas)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Coalesced != n-1 {
		t.Fatalf("stats coalesced_total = %d, want %d", st.Coalesced, n-1)
	}
}

// TestServeParallelismIgnored pins the wire contract of the retired
// per-session fields: a submit body that still carries "parallelism"
// or "flow_engine" — whatever its value, even a name that never
// selected a backend — is accepted, neither the submit response nor
// the session info reports either field, and the session answers
// bit-identically to one submitted without it.
func TestServeParallelismIgnored(t *testing.T) {
	_, hs, c := newTestServer(t, Config{})
	ctx := context.Background()
	plain := submitCircuit(t, c, "q", "adder16")
	req := &QueryRequest{TargetPS: 0.6 * plain.MinDelayPS, WantSizes: true}
	without, err := c.Query(ctx, "q", req)
	if err != nil {
		t.Fatal(err)
	}
	// rawJSON sends one request and decodes the reply as a bare map, so
	// a key the typed wire structs no longer declare still shows.
	rawJSON := func(method, path, body string) map[string]any {
		t.Helper()
		hr, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var raw map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s %s: status %d, body %v", method, path, body, resp.StatusCode, raw)
		}
		for _, key := range []string{"parallelism", "flow_engine"} {
			if _, ok := raw[key]; ok {
				t.Fatalf("%s %s still reports %s: %v", method, path, key, raw)
			}
		}
		return raw
	}
	for i, field := range []string{`"parallelism":8`, `"flow_engine":"costscaling"`, `"flow_engine":"nope"`} {
		id := fmt.Sprintf("p%d", i)
		sub := rawJSON(http.MethodPost, "/v1/sessions", fmt.Sprintf(`{"id":%q,"circuit":"adder16",%s}`, id, field))
		if sub["min_delay_ps"] != plain.MinDelayPS {
			t.Fatalf("%s: Dmin %v, %v without", field, sub["min_delay_ps"], plain.MinDelayPS)
		}
		rawJSON(http.MethodGet, "/v1/sessions/"+id, "")
		with, err := c.Query(ctx, id, req)
		if err != nil {
			t.Fatal(err)
		}
		if with.Area != without.Area || with.CPPS != without.CPPS ||
			with.Iterations != without.Iterations || len(with.Sizes) != len(without.Sizes) {
			t.Fatalf("%s: answers differ: %+v vs %+v", field, with, without)
		}
		for k := range without.Sizes {
			if with.Sizes[k] != without.Sizes[k] {
				t.Fatalf("%s: size[%d] = %v, %v without", field, k, with.Sizes[k], without.Sizes[k])
			}
		}
	}
}
