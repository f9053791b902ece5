package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minflo/internal/fault"
)

// newTestServer spins up a Server on httptest with the given config
// and registers shutdown cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv, hs, c, _ := newFaultServer(t, cfg, "")
	return srv, hs, c
}

// newFaultServer is newTestServer with fault injection on session id
// (see faultHandler); an empty id injects nowhere.
func newFaultServer(t *testing.T, cfg Config, id string) (*Server, *httptest.Server, *Client, *faultHandler) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := injectFaults(srv.Handler(), id)
	hs := httptest.NewServer(f)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		hs.Close()
	})
	c := NewClient(hs.URL, hs.Client())
	return srv, hs, c, f
}

// faultHandler wraps a server's handler for fault drills: every
// request on one session's paths (/v1/sessions/{id}/query and /edit)
// runs its solves under the plan last passed to set (fault.Context),
// while other sessions run untouched.
type faultHandler struct {
	next   http.Handler
	prefix string // "" matches nothing
	mu     sync.Mutex
	plan   fault.Plan
}

func injectFaults(next http.Handler, id string) *faultHandler {
	f := &faultHandler{next: next}
	if id != "" {
		f.prefix = "/v1/sessions/" + id + "/"
	}
	return f
}

func (f *faultHandler) set(p fault.Plan) {
	f.mu.Lock()
	f.plan = p
	f.mu.Unlock()
}

func (f *faultHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.prefix != "" && strings.HasPrefix(r.URL.Path, f.prefix) {
		f.mu.Lock()
		p := f.plan
		f.mu.Unlock()
		r = r.WithContext(fault.Context(r.Context(), p))
	}
	f.next.ServeHTTP(w, r)
}

func submitCircuit(t *testing.T, c *Client, id, circuit string) *SubmitResponse {
	t.Helper()
	sub, err := c.Submit(context.Background(), &SubmitRequest{ID: id, Circuit: circuit})
	if err != nil {
		t.Fatalf("submit %s: %v", circuit, err)
	}
	return sub
}

func TestServeSubmitQueryLifecycle(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()

	sub := submitCircuit(t, c, "a16", "adder16")
	if sub.ID != "a16" || sub.Generation != 0 {
		t.Fatalf("submit response: %+v", sub)
	}
	if sub.NumGates <= 0 || sub.MemBytes <= 0 || sub.MinDelayPS <= 0 {
		t.Fatalf("submit response lacks metadata: %+v", sub)
	}

	// First query is cold, later queries are warm; seq counts within
	// the generation.
	targets := []float64{0.6, 0.5, 0.75}
	for i, spec := range targets {
		q, err := c.Query(ctx, "a16", &QueryRequest{TargetPS: spec * sub.MinDelayPS, WantSizes: i == 0})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if q.Error != nil || q.Partial {
			t.Fatalf("query %d not clean: %+v", i, q)
		}
		if q.Seq != i+1 || q.Generation != 0 {
			t.Fatalf("query %d seq/gen: %+v", i, q)
		}
		if q.Warm != (i > 0) {
			t.Fatalf("query %d warm=%v", i, q.Warm)
		}
		if q.CPPS > spec*sub.MinDelayPS*(1+1e-9) {
			t.Fatalf("query %d misses target: CP %.6g > %.6g", i, q.CPPS, spec*sub.MinDelayPS)
		}
		if i == 0 && len(q.Sizes) != sub.NumGates {
			t.Fatalf("want_sizes returned %d sizes, want %d", len(q.Sizes), sub.NumGates)
		}
		if i > 0 && q.Sizes != nil {
			t.Fatalf("sizes returned without want_sizes")
		}
	}

	info, err := c.Info(ctx, "a16")
	if err != nil {
		t.Fatal(err)
	}
	if info.Queries != int64(len(targets)) || info.Quarantined {
		t.Fatalf("info: %+v", info)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 || st.MemBytes <= 0 || st.Queries < int64(len(targets)) {
		t.Fatalf("stats: %+v", st)
	}

	if err := c.Delete(ctx, "a16"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(ctx, "a16", &QueryRequest{TargetPS: sub.MinDelayPS})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Body.Code != CodeNotFound {
		t.Fatalf("query after delete: %v", err)
	}
}

// TestServeInfoDuringResubmit polls GET /v1/sessions/{id} while the
// same id is resubmitted: the worker's build writes the generation and
// gate count the info handler reads, so under -race any unguarded write
// shows up here.
func TestServeInfoDuringResubmit(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	submitCircuit(t, c, "r", "c17")

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := c.Info(ctx, "r"); err != nil {
				var apiErr *APIError
				if !errors.As(err, &apiErr) || apiErr.Body.Code != CodeNotFound {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 20; i++ {
		submitCircuit(t, c, "r", "adder16")
	}
	close(done)
	wg.Wait()
	info, err := c.Info(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	if info.NumGates <= 0 || info.Generation != 0 {
		t.Fatalf("info after resubmits: %+v", info)
	}
}

func TestServeInfeasibleAndBadRequests(t *testing.T) {
	_, hs, c := newTestServer(t, Config{})
	ctx := context.Background()
	sub := submitCircuit(t, c, "c", "c17")

	// Target below Dmin·(min possible speedup) — pick something absurd.
	_, err := c.Query(ctx, "c", &QueryRequest{TargetPS: sub.MinDelayPS * 1e-6})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Body.Code != CodeInfeasible || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible target: %v", err)
	}

	// Unknown circuit, missing netlist, bad target.
	if _, err := c.Submit(ctx, &SubmitRequest{Circuit: "nope9999"}); err == nil {
		t.Fatal("unknown circuit accepted")
	}
	if _, err := c.Submit(ctx, &SubmitRequest{}); err == nil {
		t.Fatal("empty submit accepted")
	}
	if _, err := c.Query(ctx, "c", &QueryRequest{TargetPS: -1}); err == nil {
		t.Fatal("negative target accepted")
	}

	// Raw malformed JSON.
	resp, err := http.Post(hs.URL+"/v1/sessions", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d", resp.StatusCode)
	}
}

// c17Bench is ISCAS85 c17 as inline .bench text.
const c17Bench = `# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func TestServeBenchSubmission(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	sub, err := c.Submit(ctx, &SubmitRequest{ID: "inline", Bench: c17Bench, Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.Query(ctx, "inline", &QueryRequest{TargetPS: 0.7 * sub.MinDelayPS})
	if err != nil {
		t.Fatal(err)
	}
	if q.Error != nil || q.CPPS > 0.7*sub.MinDelayPS*(1+1e-9) {
		t.Fatalf("inline bench query: %+v", q)
	}
}

// TestServeBodyCap: a request body of maxBodyBytes is read, one byte
// more is refused with 413 bad_request before any session exists.
func TestServeBodyCap(t *testing.T) {
	_, hs, c := newTestServer(t, Config{})
	// submitOfSize is an inline c17 submit padded with .bench comment
	// lines to exactly n bytes of JSON (each "\n" escapes to 2 bytes).
	submitOfSize := func(id string, n int) string {
		base, err := json.Marshal(&SubmitRequest{ID: id, Bench: c17Bench + "#"})
		if err != nil {
			t.Fatal(err)
		}
		line := "#" + strings.Repeat("x", 63) + "\n"
		extra := n - len(base)
		pad := strings.Repeat(line, extra/(len(line)+1))
		last := "#" + strings.Repeat("x", extra%(len(line)+1))
		body, err := json.Marshal(&SubmitRequest{ID: id, Bench: c17Bench + pad + last})
		if err != nil {
			t.Fatal(err)
		}
		if len(body) != n {
			t.Fatalf("padded submit is %d bytes, want %d", len(body), n)
		}
		return string(body)
	}
	post := func(body string) (int, ErrorBody) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb
	}
	sessions := func() int {
		t.Helper()
		st, err := c.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st.Sessions
	}

	if status, eb := post(submitOfSize("over", maxBodyBytes+1)); status != http.StatusRequestEntityTooLarge || eb.Code != CodeBadRequest {
		t.Fatalf("submit one byte over the cap: %d %+v, want 413 %s", status, eb, CodeBadRequest)
	}
	if n := sessions(); n != 0 {
		t.Fatalf("%d sessions after the refused submit, want 0", n)
	}
	if status, eb := post(submitOfSize("at", maxBodyBytes)); status != http.StatusOK {
		t.Fatalf("submit of exactly the cap: %d %+v, want 200", status, eb)
	}
	if n := sessions(); n != 1 {
		t.Fatalf("%d sessions after the accepted submit, want 1", n)
	}
}

// TestServeOverload drives more work than the tiny admission limits
// allow and checks the excess is refused with 429 + Retry-After —
// bounded queues, no silent backlog.  The in-flight solve is pinned
// mid-run via a fault plan's callback so admission pressure is
// deterministic, not a race against solve speed.
func TestServeOverload(t *testing.T) {
	_, hs, c, faults := newFaultServer(t, Config{
		MaxInFlight: 1,
		MaxPending:  2,
		QueueDepth:  1,
	}, "a")
	sub, err := c.Submit(context.Background(), &SubmitRequest{ID: "a", Circuit: "adder16"})
	if err != nil {
		t.Fatal(err)
	}

	// Every solve parks at its first poll operation until released, so
	// the two admitted jobs (1 executing + 1 queued) hold their
	// pending slots for the whole burst.
	release := make(chan struct{})
	faults.set(fault.Plan{Mode: fault.Cancel, Op: 1, OnCancel: func() { <-release }})

	const burst = 8
	var rejected, retryAfterSeen, completed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"target_ps": %g}`, (0.5+float64(i)*1e-6)*sub.MinDelayPS)
			resp, err := http.Post(hs.URL+"/v1/sessions/a/query", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				rejected.Add(1)
				if resp.Header.Get("Retry-After") != "" {
					retryAfterSeen.Add(1)
				}
				var eb ErrorBody
				if json.NewDecoder(resp.Body).Decode(&eb) != nil || eb.Code != CodeOverloaded {
					t.Errorf("429 body: %+v", eb)
				}
			case http.StatusOK:
				completed.Add(1)
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}(i)
	}

	// Exactly burst-2 rejections: the blocked solve guarantees neither
	// admitted slot frees before the burst is fully refused.
	deadline := time.Now().Add(10 * time.Second)
	for rejected.Load() < burst-2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if rejected.Load() != burst-2 || completed.Load() != 2 {
		t.Fatalf("rejected=%d completed=%d, want %d/2", rejected.Load(), completed.Load(), burst-2)
	}
	if retryAfterSeen.Load() != rejected.Load() {
		t.Fatalf("Retry-After missing on some 429s (%d/%d)", retryAfterSeen.Load(), rejected.Load())
	}
	if st, _ := c.Stats(context.Background()); st.Rejected < int64(burst-2) {
		t.Fatalf("stats.rejected = %d", st.Rejected)
	}
}

// TestServeQuarantineRebuild injects a solve panic, checks the session is quarantined — process stays up — and that the
// next query transparently rebuilds a fresh generation that answers
// like a cold session.
func TestServeQuarantineRebuild(t *testing.T) {
	srv, _, c, faults := newFaultServer(t, Config{}, "f")
	ctx := context.Background()

	sub, err := c.Submit(ctx, &SubmitRequest{ID: "f", Circuit: "adder16"})
	if err != nil {
		t.Fatal(err)
	}
	T := 0.6 * sub.MinDelayPS

	// Clean run first (plan None) to have a reference answer.
	ref, err := c.Query(ctx, "f", &QueryRequest{TargetPS: T})
	if err != nil || ref.Error != nil {
		t.Fatalf("reference query: %v %+v", err, ref)
	}

	// Arm a panic mid-solve and fire.
	faults.set(fault.Plan{Mode: fault.Panic, Op: 20})
	q, err := c.Query(ctx, "f", &QueryRequest{TargetPS: 0.5 * sub.MinDelayPS})
	faults.set(fault.Plan{})
	if err != nil {
		// No partial available: terminal 500 engine_failed.
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Body.Code != CodeEngineFailed {
			t.Fatalf("injected panic surfaced as: %v", err)
		}
	} else {
		// Partial came back attached to the engine_failed error.
		if q.Error == nil || q.Error.Code != CodeEngineFailed {
			t.Fatalf("injected panic answered: %+v", q)
		}
	}

	info, err := c.Info(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Quarantined {
		t.Fatal("session not quarantined after engine failure")
	}
	if srv.quarantines.Load() == 0 {
		t.Fatal("quarantine counter did not move")
	}

	// Next query rebuilds cold: new generation, seq restarts, answer
	// matches the pre-crash reference bit-for-bit (same first query of
	// a fresh generation).
	q2, err := c.Query(ctx, "f", &QueryRequest{TargetPS: T})
	if err != nil || q2.Error != nil {
		t.Fatalf("post-quarantine query: %v %+v", err, q2)
	}
	if q2.Generation != ref.Generation+1 || q2.Seq != 1 || q2.Warm {
		t.Fatalf("rebuild generation bookkeeping: %+v", q2)
	}
	if q2.Area != ref.Area || q2.CPPS != ref.CPPS || q2.Iterations != ref.Iterations {
		t.Fatalf("rebuilt session diverged from cold reference: %+v vs %+v", q2, ref)
	}
	if srv.rebuilds.Load() == 0 {
		t.Fatal("rebuild counter did not move")
	}
	if info2, _ := c.Info(ctx, "f"); info2.Quarantined {
		t.Fatal("session still quarantined after rebuild")
	}
}

// TestServeIterationFailedQuarantines: a D/W iteration that fails
// outside the abort taxonomy (a fault-injected error at the first flow
// poll of every solve) answers its best-so-far sizing as a partial
// with code iteration_failed — never as a clean answer — and
// quarantines the session, so the next query rebuilds a fresh
// generation that answers like a cold session.
func TestServeIterationFailedQuarantines(t *testing.T) {
	srv, _, c, faults := newFaultServer(t, Config{}, "f")
	ctx := context.Background()
	sub, err := c.Submit(ctx, &SubmitRequest{ID: "f", Circuit: "adder16"})
	if err != nil {
		t.Fatal(err)
	}
	ref := submitCircuit(t, c, "ref", "adder16")
	T := 0.6 * sub.MinDelayPS

	faults.set(fault.Plan{Mode: fault.Error, Op: 1})
	q, err := c.Query(ctx, "f", &QueryRequest{TargetPS: T})
	faults.set(fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if q.Error == nil || q.Error.Code != CodeIterationFailed || !q.Partial || q.Iterations != 0 || q.CPPS > T*(1+1e-9) {
		t.Fatalf("failed iteration answered: partial %v, error %+v, %d iterations, CP %g (target %g); want the TILOS sizing as a partial with code %s",
			q.Partial, q.Error, q.Iterations, q.CPPS, T, CodeIterationFailed)
	}
	if info, err := c.Info(ctx, "f"); err != nil || !info.Quarantined {
		t.Fatalf("session not quarantined after a failed iteration (err %v)", err)
	}
	if srv.quarantines.Load() == 0 {
		t.Fatal("quarantine counter did not move")
	}

	want, err := c.Query(ctx, "ref", &QueryRequest{TargetPS: ref.MinDelayPS * 0.6})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.Query(ctx, "f", &QueryRequest{TargetPS: T})
	if err != nil || q2.Error != nil {
		t.Fatalf("post-quarantine query: %v %+v", err, q2)
	}
	if q2.Generation != q.Generation+1 || q2.Seq != 1 || q2.Warm {
		t.Fatalf("rebuild generation bookkeeping: %+v", q2)
	}
	if q2.Area != want.Area || q2.CPPS != want.CPPS || q2.Iterations != want.Iterations {
		t.Fatalf("rebuilt session diverged from a cold session: %+v vs %+v", q2, want)
	}
}

// TestServeDrainReturnsPartial starts a long query, then shuts the
// server down with a short drain deadline: the in-flight query must
// come back with a best-so-far partial answer, and post-drain requests
// must see 503 draining.
func TestServeDrainReturnsPartial(t *testing.T) {
	srv, hs, c := newTestServer(t, Config{DrainTimeout: 300 * time.Millisecond})
	ctx := context.Background()
	sub := submitCircuit(t, c, "m", "mult8")

	type ans struct {
		q   *QueryResponse
		err error
	}
	done := make(chan ans, 1)
	go func() {
		// Tight target on the multiplier: plenty of D/W iterations to
		// be mid-flight when the drain deadline lands.
		q, err := c.Query(ctx, "m", &QueryRequest{TargetPS: 0.4 * sub.MinDelayPS})
		done <- ans{q, err}
	}()

	// Let the solve get going, then drain.
	time.Sleep(50 * time.Millisecond)
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}

	a := <-done
	if a.err != nil {
		t.Fatalf("drained query failed outright: %v", a.err)
	}
	// Either the solve finished inside the drain window (clean answer)
	// or it was cut at the deadline (partial with canceled error) —
	// both are graceful; a hang or a 500 is not.
	if a.q.Error != nil {
		if a.q.Error.Code != CodeCanceled && a.q.Error.Code != CodeBudgetExhausted {
			t.Fatalf("drained query error: %+v", a.q.Error)
		}
		if !a.q.Partial || a.q.Area <= 0 {
			t.Fatalf("drained query lost its partial answer: %+v", a.q)
		}
	}

	// The server no longer admits work.
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d", resp.StatusCode)
	}
	resp2, err := http.Post(hs.URL+"/v1/sessions", "application/json", strings.NewReader(`{"circuit":"c17"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %d", resp2.StatusCode)
	}
	// healthz stays 200: the process is alive, just not ready.
	resp3, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain: %d", resp3.StatusCode)
	}
}

// TestServePerRequestBudget checks the flow-work budget funnels into
// the warm session and returns partials without poisoning later
// queries.
func TestServePerRequestBudget(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	sub := submitCircuit(t, c, "b", "adder16")

	q, err := c.Query(ctx, "b", &QueryRequest{TargetPS: 0.5 * sub.MinDelayPS, FlowWorkBudget: 1})
	if err != nil {
		// No partial: acceptable only as budget_exhausted.
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Body.Code != CodeBudgetExhausted {
			t.Fatalf("starved query: %v", err)
		}
	} else if q.Error == nil || q.Error.Code != CodeBudgetExhausted || !q.Partial {
		t.Fatalf("starved query answered cleanly: %+v", q)
	}

	// A later generous query on the same session succeeds.
	q2, err := c.Query(ctx, "b", &QueryRequest{TargetPS: 0.6 * sub.MinDelayPS})
	if err != nil || q2.Error != nil {
		t.Fatalf("query after starved one: %v %+v", err, q2)
	}
}

// TestClientBackoffHonorsRetryAfter exercises the client retry loop
// against a scripted server: two 429s with Retry-After then success.
func TestClientBackoffHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var gapOK atomic.Bool
	gapOK.Store(true)
	var last atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		now := time.Now().UnixNano()
		if prev := last.Swap(now); prev != 0 && n <= 3 {
			if time.Duration(now-prev) < time.Second {
				gapOK.Store(false)
			}
		}
		if n <= 2 {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, &ErrorBody{Code: CodeOverloaded, Message: "busy"})
			return
		}
		writeJSON(w, http.StatusOK, &StatsResponse{Sessions: 7})
	}))
	defer hs.Close()

	c := NewClient(hs.URL, hs.Client())
	c.BaseDelay = time.Millisecond // Retry-After must dominate
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 7 || calls.Load() != 3 {
		t.Fatalf("retry loop: stats=%+v calls=%d", st, calls.Load())
	}
	if !gapOK.Load() {
		t.Fatal("client retried faster than Retry-After allowed")
	}

	// Exhaustion: a server that always 429s must not spin forever.
	calls.Store(0)
	c2 := NewClient(hs.URL, hs.Client())
	c2.MaxRetries = 2
	c2.BaseDelay = time.Millisecond
	hs2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusTooManyRequests, &ErrorBody{Code: CodeOverloaded})
	}))
	defer hs2.Close()
	c2.base = hs2.URL
	if _, err := c2.Stats(context.Background()); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("always-429 server: %v", err)
	}

	// Terminal errors are NOT retried.
	hs3 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusNotFound, &ErrorBody{Code: CodeNotFound})
	}))
	defer hs3.Close()
	c3 := NewClient(hs3.URL, hs3.Client())
	calls.Store(0)
	var apiErr *APIError
	if _, err := c3.Info(context.Background(), "x"); !errors.As(err, &apiErr) || apiErr.Body.Code != CodeNotFound {
		t.Fatalf("404: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("404 was retried %d times", calls.Load())
	}
}

// TestServeEvictionRebuild fills a tiny memory budget with sessions,
// checks LRU eviction kicks in, and that a re-submitted evicted
// session answers bit-identically to its pre-eviction cold self.
func TestServeEvictionRebuild(t *testing.T) {
	// mult8 sessions weigh ~hundreds of KB; a low watermark forces
	// eviction after a handful.
	srv, _, c := newTestServer(t, Config{
		MemHighBytes: 1 << 20,
		MemLowBytes:  1 << 19,
	})
	ctx := context.Background()

	sub, err := c.Submit(ctx, &SubmitRequest{ID: "victim", Circuit: "adder16"})
	if err != nil {
		t.Fatal(err)
	}
	T := 0.6 * sub.MinDelayPS
	ref, err := c.Query(ctx, "victim", &QueryRequest{TargetPS: T, WantSizes: true})
	if err != nil || ref.Error != nil {
		t.Fatalf("reference query: %v %+v", err, ref)
	}

	// Pile on LRU-fresher sessions until the victim is evicted.
	evicted := false
	for i := 0; i < 12 && !evicted; i++ {
		id := fmt.Sprintf("filler-%d", i)
		if _, err := c.Submit(ctx, &SubmitRequest{ID: id, Circuit: "mult8"}); err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
		if _, err := c.Query(ctx, id, &QueryRequest{TargetPS: 0.8 * sub.MinDelayPS * 40}); err != nil {
			// Filler answers don't matter; only the memory pressure does.
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("filler query %d: %v", i, err)
			}
		}
		if _, err := c.Info(ctx, "victim"); err != nil {
			evicted = true
		}
	}
	if !evicted {
		t.Fatalf("victim never evicted (mem=%d, evictions=%d)", func() int64 {
			st, _ := c.Stats(ctx)
			return st.MemBytes
		}(), srv.evictions.Load())
	}
	if srv.evictions.Load() == 0 {
		t.Fatal("eviction counter did not move")
	}

	// Re-submit and replay: the first query of the rebuilt session is
	// cold, so it must match the original cold answer bit-for-bit.
	sub2, err := c.Submit(ctx, &SubmitRequest{ID: "victim", Circuit: "adder16"})
	if err != nil {
		t.Fatal(err)
	}
	if sub2.MinDelayPS != sub.MinDelayPS {
		t.Fatalf("rebuilt Dmin drifted: %.17g vs %.17g", sub2.MinDelayPS, sub.MinDelayPS)
	}
	re, err := c.Query(ctx, "victim", &QueryRequest{TargetPS: T, WantSizes: true})
	if err != nil || re.Error != nil {
		t.Fatalf("rebuilt query: %v %+v", err, re)
	}
	if re.Area != ref.Area || re.CPPS != ref.CPPS || re.Iterations != ref.Iterations {
		t.Fatalf("rebuilt session diverged: %+v vs %+v", re, ref)
	}
	if len(re.Sizes) != len(ref.Sizes) {
		t.Fatalf("size vectors differ in length")
	}
	for i := range re.Sizes {
		if re.Sizes[i] != ref.Sizes[i] {
			t.Fatalf("rebuilt sizes diverge at %d: %.17g vs %.17g", i, re.Sizes[i], ref.Sizes[i])
		}
	}
}
