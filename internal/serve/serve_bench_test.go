package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
// its allocs/op and requires it at least 2× faster than
// BenchmarkServeWarmQuery (unseeded) in the same run.
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
	for i := 0; i < b.N; i++ {
		rec := benchPost(b, h, "/v1/sessions/seed/query", targets[i%2])
		if i == 0 {
			var q QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
				b.Fatal(err)
			}
			if q.Seed != "warm" {
				b.Fatalf("benchmark not exercising the seeded path: seed=%q", q.Seed)
			}
		}
	}
}
