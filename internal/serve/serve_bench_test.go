package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"minflo"
)

// benchPost drives the handler directly (no sockets): the measured
// path is decode → admission → worker solve → encode, which is what
// the alloc-regression gate protects.
func benchPost(b *testing.B, h http.Handler, path, body string) *httptest.ResponseRecorder {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
	}
	return rec
}

// BenchmarkServeSubmit measures the cold path: session creation with a
// full problem build per request (each iteration submits a fresh id).
func BenchmarkServeSubmit(b *testing.B) {
	srv, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"id":"bench-%d","circuit":"adder16"}`, i)
		benchPost(b, h, "/v1/sessions", body)
	}
}

// BenchmarkServeWarmQuery measures the warm path the daemon exists
// for: repeated sizing queries against one live session, served by
// incremental re-flow.  Two alternating targets keep the changed-arc
// sets realistic (identical consecutive targets would short-circuit
// the cost diff).
func BenchmarkServeWarmQuery(b *testing.B) {
	srv, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	rec := benchPost(b, h, "/v1/sessions", `{"id":"warm","circuit":"adder16"}`)
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		b.Fatal(err)
	}
	targets := [2]string{
		fmt.Sprintf(`{"target_ps": %g}`, 0.6*sub.MinDelayPS),
		fmt.Sprintf(`{"target_ps": %g}`, 0.55*sub.MinDelayPS),
	}
	// Warm both targets up front so every timed iteration is a pure
	// warm re-query.
	benchPost(b, h, "/v1/sessions/warm/query", targets[0])
	benchPost(b, h, "/v1/sessions/warm/query", targets[1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, h, "/v1/sessions/warm/query", targets[i%2])
	}
}

// BenchmarkServeWarmSeededQuery measures the trust-region path: small
// refinement queries (±0.3% target moves) answered from the previous
// converged sizing instead of a TILOS re-seed.  The bench gate holds
// its allocs/op and iters/op (D/W iterations per answer) and requires
// it at least 2× faster than BenchmarkServeWarmQuery (unseeded) in the
// same run.
func BenchmarkServeWarmSeededQuery(b *testing.B) {
	srv, err := New(Config{TrustRegion: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	rec := benchPost(b, h, "/v1/sessions", `{"id":"seed","circuit":"adder16"}`)
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		b.Fatal(err)
	}
	targets := [2]string{
		fmt.Sprintf(`{"target_ps": %g}`, 0.600*sub.MinDelayPS),
		fmt.Sprintf(`{"target_ps": %g}`, 0.604*sub.MinDelayPS),
	}
	// The anchor solve plus one of each target: every timed iteration
	// is inside the trust region of its predecessor.
	benchPost(b, h, "/v1/sessions/seed/query", targets[0])
	benchPost(b, h, "/v1/sessions/seed/query", targets[1])
	b.ReportAllocs()
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		rec := benchPost(b, h, "/v1/sessions/seed/query", targets[i%2])
		b.StopTimer()
		var q QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
			b.Fatal(err)
		}
		if q.Seed != "warm" || q.FarSeed || q.LibrarySeed {
			b.Fatalf("benchmark not exercising the refinement path: seed=%q far=%v library=%v", q.Seed, q.FarSeed, q.LibrarySeed)
		}
		iters += q.Iterations
		b.StartTimer()
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

// BenchmarkServeFarJumpQuery measures far target jumps on the
// trust-region path: alternating 0.60 and 0.68·Dmin, a 13% move past
// the 5% region every query, each answered warm from the previous
// converged sizing on the far-jump schedule.  Between jumps an untimed
// edit batch rewrites the pristine (zero) extra load of the bit-0 sum
// output: accepted, it empties the session's library of converged
// sizings, so no timed jump can start from the earlier answer at its
// target, while timing and the live seed stay exactly as they were.
// iters/op is the D/W iterations per answer, the work counter the
// bench gate holds.
func BenchmarkServeFarJumpQuery(b *testing.B) {
	srv, err := New(Config{TrustRegion: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	rec := benchPost(b, h, "/v1/sessions", `{"id":"far","circuit":"adder16"}`)
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		b.Fatal(err)
	}
	ckt, err := minflo.CircuitByName("adder16")
	if err != nil {
		b.Fatal(err)
	}
	clear := fmt.Sprintf(`{"edits": [{"op": "load", "gate": %d, "load_ff": 0}]}`, ckt.POs[0].Index)
	targets := [2]string{
		fmt.Sprintf(`{"target_ps": %g}`, 0.60*sub.MinDelayPS),
		fmt.Sprintf(`{"target_ps": %g}`, 0.68*sub.MinDelayPS),
	}
	// The cold anchor plus one jump each way: every timed iteration
	// jumps from an answer that was itself a far jump.
	benchPost(b, h, "/v1/sessions/far/query", targets[0])
	benchPost(b, h, "/v1/sessions/far/query", targets[1])
	benchPost(b, h, "/v1/sessions/far/edit", clear)
	benchPost(b, h, "/v1/sessions/far/query", targets[0])
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		benchPost(b, h, "/v1/sessions/far/edit", clear)
		b.StartTimer()
		rec := benchPost(b, h, "/v1/sessions/far/query", targets[(i+1)%2])
		var q QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
			b.Fatal(err)
		}
		if q.Seed != "warm" || !q.FarSeed || q.LibrarySeed {
			b.Fatalf("benchmark not exercising the far-jump path: seed=%q far_seed=%v library_seed=%v", q.Seed, q.FarSeed, q.LibrarySeed)
		}
		iters += q.Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

// BenchmarkServeLibraryJumpQuery measures the same 0.60 ↔ 0.68·Dmin
// jumps with nothing between them: after the first jump each way, the
// answer at the other target waits in the session's library, and every
// timed jump starts from it as a refinement.  The bench gate holds its
// allocs/op and iters/op.
func BenchmarkServeLibraryJumpQuery(b *testing.B) {
	srv, err := New(Config{TrustRegion: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	rec := benchPost(b, h, "/v1/sessions", `{"id":"lib","circuit":"adder16"}`)
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		b.Fatal(err)
	}
	targets := [2]string{
		fmt.Sprintf(`{"target_ps": %g}`, 0.60*sub.MinDelayPS),
		fmt.Sprintf(`{"target_ps": %g}`, 0.68*sub.MinDelayPS),
	}
	// The cold anchor, a far jump to 0.68 (filing the 0.60 answer) and
	// a library jump back (filing the 0.68 one).
	benchPost(b, h, "/v1/sessions/lib/query", targets[0])
	benchPost(b, h, "/v1/sessions/lib/query", targets[1])
	benchPost(b, h, "/v1/sessions/lib/query", targets[0])
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := benchPost(b, h, "/v1/sessions/lib/query", targets[(i+1)%2])
		var q QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
			b.Fatal(err)
		}
		if q.Seed != "warm" || q.FarSeed || !q.LibrarySeed {
			b.Fatalf("benchmark not exercising the library path: seed=%q far_seed=%v library_seed=%v", q.Seed, q.FarSeed, q.LibrarySeed)
		}
		iters += q.Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}
