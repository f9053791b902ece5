package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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
// "tilos", a small refinement and a far jump answer "warm", the jump
// with far_seed — and the stats counters record the seeded and
// far-seeded totals.
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
	if st.Seeded != 1 || q1.FarSeed {
		t.Fatalf("stats seeded_total = %d, refinement far_seed = %v; want 1, false", st.Seeded, q1.FarSeed)
	}
	// A jump far beyond δ also starts from the previous answer, on the
	// far-jump schedule, without a fallback.
	q2, err := c.Query(context.Background(), "tr", &QueryRequest{TargetPS: 0.75 * sub.MinDelayPS})
	if err != nil {
		t.Fatal(err)
	}
	if q2.Seed != "warm" || !q2.FarSeed || q2.SeedFallback {
		t.Fatalf("jump query Seed = %q far_seed = %v fallback = %v, want a warm far jump with no fallback",
			q2.Seed, q2.FarSeed, q2.SeedFallback)
	}
	if q2.CPPS > 0.75*sub.MinDelayPS*(1+1e-9) {
		t.Fatalf("far-jump answer CP %g violates target", q2.CPPS)
	}
	st, err = c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Seeded != 2 || st.FarSeeded != 1 || st.FarFallbacks != 0 {
		t.Fatalf("stats seeded_total = %d far_seeded_total = %d far_seed_fallbacks_total = %d, want 2, 1, 0",
			st.Seeded, st.FarSeeded, st.FarFallbacks)
	}
	// Jumping back to the first region starts from its answer, kept in
	// the session's library, as a refinement.
	q3, err := c.Query(context.Background(), "tr", &QueryRequest{TargetPS: 0.6 * sub.MinDelayPS})
	if err != nil {
		t.Fatal(err)
	}
	if q3.Seed != "warm" || q3.FarSeed || !q3.LibrarySeed || q3.SeedFallback {
		t.Fatalf("jump back Seed = %q far_seed = %v library_seed = %v fallback = %v, want a warm library refinement",
			q3.Seed, q3.FarSeed, q3.LibrarySeed, q3.SeedFallback)
	}
	st, err = c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Seeded != 3 || st.FarSeeded != 1 || st.LibrarySeeded != 1 {
		t.Fatalf("stats seeded_total = %d far_seeded_total = %d library_seeded_total = %d, want 3, 1, 1",
			st.Seeded, st.FarSeeded, st.LibrarySeeded)
	}
}

// TestServeStatsMatchResponses: the /stats provenance counters are
// sums over the answers clients received.  One session with trust-region
// seeding runs load edits (in-budget ones and one over the edit cone
// budget), refinement queries and far jumps outside the trust region;
// every counter must equal the count over the responses returned.
func TestServeStatsMatchResponses(t *testing.T) {
	_, _, c := newTestServer(t, Config{TrustRegion: 0.05})
	ctx := context.Background()
	sub := submitCircuit(t, c, "st", "adder16")

	var want StatsResponse
	query := func(f float64) {
		t.Helper()
		q, err := c.Query(ctx, "st", &QueryRequest{TargetPS: f * sub.MinDelayPS})
		if err != nil {
			t.Fatalf("query %g: %v", f, err)
		}
		if q.Seed == "warm" {
			want.Seeded++
			if q.FarSeed {
				want.FarSeeded++
			}
			if q.LibrarySeed {
				want.LibrarySeeded++
			}
		}
		if q.SeedFallback {
			want.SeedFallbacks++
			if q.FarSeed {
				want.FarFallbacks++
			}
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
	// A load on the bit-0 sum output has a small forward cone; one on
	// the last gate sits at the end of the carry chain.
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
	query(0.75) // a far jump: outside the trust region
	edit(chain, 0)
	query(0.751)
	edit(local, 3)
	query(0.66)  // a far jump after an in-budget edit
	query(0.75)  // a far jump: the edit emptied the library
	query(0.661) // back within δ of the 0.66 answer: a library hit

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := StatsResponse{
		Seeded: st.Seeded, SeedFallbacks: st.SeedFallbacks,
		FarSeeded: st.FarSeeded, FarFallbacks: st.FarFallbacks, LibrarySeeded: st.LibrarySeeded,
		Edits: st.Edits, EditFallbacks: st.EditFallbacks,
	}
	if got != want {
		t.Fatalf("stats %+v, want the response sums %+v", got, want)
	}
	if want.Seeded == 0 || want.FarSeeded != 3 || want.LibrarySeeded != 1 || want.EditFallbacks == 0 {
		t.Fatalf("workload did not exercise the warm, far-jump (3 sent), library (1 sent) and edit-fallback paths: %+v", want)
	}
	t.Logf("response sums: %+v", want)
}

// TestServeIdenticalQueryAfterAbandonedTwin: every admitted query is
// its own job.  Query A is admitted behind a parked worker and its
// client then leaves; a byte-identical query B admitted after it must
// not share A's fate.  B runs its own solve and answers clean with the
// seq after the blocker's: A, answered canceled without a solve, takes
// none.
func TestServeIdenticalQueryAfterAbandonedTwin(t *testing.T) {
	srv, hs, c, faults := newFaultServer(t, Config{MaxInFlight: 1}, "a")
	ctx := context.Background()
	sub := submitCircuit(t, c, "a", "adder16")

	// Park the worker inside a first, distinct query.
	release := make(chan struct{})
	faults.set(fault.Plan{Mode: fault.Cancel, Op: 1, OnCancel: func() { <-release }})
	blocked := make(chan *QueryResponse, 1)
	go func() {
		q, err := c.Query(ctx, "a", &QueryRequest{TargetPS: 0.55 * sub.MinDelayPS})
		if err != nil {
			t.Error(err)
		}
		blocked <- q
	}()
	waitStats(t, c, "blocker to start executing", func(st *StatsResponse) bool { return st.InFlight >= 1 })
	faults.set(fault.Plan{})

	// A: admitted, then its client disconnects.  The handler returns
	// once it sees its request context done.
	body := fmt.Sprintf(`{"target_ps": %g}`, 0.6*sub.MinDelayPS)
	actx, leave := context.WithCancel(ctx)
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions/a/query", strings.NewReader(body)).WithContext(actx)
		srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	waitStats(t, c, "query A admission", func(st *StatsResponse) bool { return st.Queries >= 2 })
	leave()
	<-aDone

	// B: byte-identical to A, admitted while A still waits in the queue.
	bReply := make(chan *QueryResponse, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/v1/sessions/a/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			bReply <- nil
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("query B status %d, want 200", resp.StatusCode)
		}
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Error(err)
		}
		bReply <- &qr
	}()
	waitStats(t, c, "query B admission", func(st *StatsResponse) bool { return st.Queries >= 3 })
	close(release)

	first, b := <-blocked, <-bReply
	if first == nil || b == nil {
		t.FailNow()
	}
	if b.Error != nil || b.Partial || b.Iterations == 0 {
		t.Fatalf("query B shared its abandoned twin's fate: error %+v, partial %v, %d iterations, area %g",
			b.Error, b.Partial, b.Iterations, b.Area)
	}
	if b.Seq != first.Seq+1 {
		t.Fatalf("query B seq %d after the blocker's seq %d, want its own next seq", b.Seq, first.Seq)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Coalesced != 0 {
		t.Fatalf("coalesced_total = %d, want 0", st.Coalesced)
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
