package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/fault"
)

// TestServeEditLifecycle drives the edit endpoint end to end: a value
// batch patches warm state and moves later answers, a structural batch
// rebuilds, stats/info counters track, and a rejected batch is atomic
// (the session answers bit-identically to an untouched twin).
func TestServeEditLifecycle(t *testing.T) {
	srv, _, c := newTestServer(t, Config{})
	ctx := context.Background()

	sub := submitCircuit(t, c, "e1", "adder16")
	submitCircuit(t, c, "twin", "adder16") // never edited
	T := 0.6 * sub.MinDelayPS

	// Value edit: extra load on a near-output gate (a small forward
	// cone, well under the default 0.25 budget — gate 0 would cover
	// most of the adder and correctly trip the fallback instead).
	lg := sub.NumGates - 1
	er, err := c.Edit(ctx, "e1", &EditRequest{Edits: []EditOp{{Op: "load", Gate: lg, LoadFF: 25}}})
	if err != nil {
		t.Fatal(err)
	}
	if er.Structural || er.Rebuilt || er.Fallback {
		t.Fatalf("value edit misreported: %+v", er)
	}
	if er.ChangedRows == 0 || er.ConeGates == 0 || er.CPPS <= 0 || er.MemBytes <= 0 {
		t.Fatalf("edit response lacks metadata: %+v", er)
	}

	q1, err := c.Query(ctx, "e1", &QueryRequest{TargetPS: T})
	if err != nil || q1.Error != nil {
		t.Fatalf("post-edit query: %v %+v", err, q1)
	}
	qt, err := c.Query(ctx, "twin", &QueryRequest{TargetPS: T})
	if err != nil {
		t.Fatal(err)
	}
	if q1.Area == qt.Area && q1.CPPS == qt.CPPS {
		t.Fatal("25 fF extra load did not move the answer")
	}

	// Rejected batch (valid load before an unknown cell): 400, atomic.
	_, err = c.Edit(ctx, "e1", &EditRequest{Edits: []EditOp{
		{Op: "load", Gate: 1, LoadFF: 9},
		{Op: "retype", Gate: 2, Cell: "NO_SUCH_CELL"},
	}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Body.Code != CodeBadRequest {
		t.Fatalf("bad batch: %v", err)
	}
	for _, bad := range []EditRequest{
		{},
		{Edits: []EditOp{{Op: "resize", Gate: 0}}},
		{Edits: []EditOp{{Op: "rewire", Gate: 1, Pin: 0, Driver: "no_such_signal"}}},
		{Edits: []EditOp{{Op: "load", Gate: 0, LoadFF: -2}}},
	} {
		if _, err := c.Edit(ctx, "e1", &bad); !errors.As(err, &apiErr) || apiErr.Body.Code != CodeBadRequest {
			t.Fatalf("bad edit %+v: %v", bad, err)
		}
	}
	if _, err := c.Edit(ctx, "nope", &EditRequest{Edits: []EditOp{{Op: "load", Gate: 0}}}); !errors.As(err, &apiErr) || apiErr.Body.Code != CodeNotFound {
		t.Fatalf("edit on unknown session: %v", err)
	}

	// The rejected batches left no trace: undo the accepted load and
	// the session must answer bit-identically to the untouched twin.
	if _, err := c.Edit(ctx, "e1", &EditRequest{Edits: []EditOp{{Op: "load", Gate: lg, LoadFF: 0}}}); err != nil {
		t.Fatal(err)
	}
	q2, err := c.Query(ctx, "e1", &QueryRequest{TargetPS: 0.55 * sub.MinDelayPS})
	if err != nil {
		t.Fatal(err)
	}
	qt2, err := c.Query(ctx, "twin", &QueryRequest{TargetPS: 0.55 * sub.MinDelayPS})
	if err != nil {
		t.Fatal(err)
	}
	if q2.Area != qt2.Area || q2.CPPS != qt2.CPPS || q2.Iterations != qt2.Iterations {
		t.Fatalf("rejected batches perturbed the session: %+v vs twin %+v", q2, qt2)
	}

	info, err := c.Info(ctx, "e1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Edits != 2 {
		t.Fatalf("info edits %d, want 2 (rejected batches must not count)", info.Edits)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Edits != 2 || st.EditFallbacks != 0 {
		t.Fatalf("stats edits %d/%d, want 2/0", st.Edits, st.EditFallbacks)
	}
	if srv.edits.Load() != 2 {
		t.Fatalf("server counter %d", srv.edits.Load())
	}
}

// TestServeEditQuarantineReplay proves the edit log is part of the
// session history a quarantine rebuild replays: after an accepted edit
// and a crash, the rebuilt generation answers the post-edit query
// bit-identically — and differently from a never-edited control.
func TestServeEditQuarantineReplay(t *testing.T) {
	srv, _, c, faults := newFaultServer(t, Config{}, "eq")
	ctx := context.Background()

	sub, err := c.Submit(ctx, &SubmitRequest{ID: "eq", Circuit: "adder16"})
	if err != nil {
		t.Fatal(err)
	}
	T := 0.6 * sub.MinDelayPS

	if _, err := c.Edit(ctx, "eq", &EditRequest{Edits: []EditOp{{Op: "load", Gate: 3, LoadFF: 30}}}); err != nil {
		t.Fatal(err)
	}
	ref, err := c.Query(ctx, "eq", &QueryRequest{TargetPS: T})
	if err != nil || ref.Error != nil {
		t.Fatalf("post-edit reference: %v %+v", err, ref)
	}

	// Crash the next solve; the session quarantines.
	faults.set(fault.Plan{Mode: fault.Panic, Op: 20})
	_, _ = c.Query(ctx, "eq", &QueryRequest{TargetPS: 0.5 * sub.MinDelayPS})
	faults.set(fault.Plan{})
	if info, _ := c.Info(ctx, "eq"); !info.Quarantined {
		t.Fatal("session not quarantined")
	}

	// The rebuild parses the pristine netlist and replays the edit log:
	// the first query of the new generation answers exactly like the
	// first post-edit query of the old one.
	q2, err := c.Query(ctx, "eq", &QueryRequest{TargetPS: T})
	if err != nil || q2.Error != nil {
		t.Fatalf("post-rebuild query: %v %+v", err, q2)
	}
	if q2.Generation != ref.Generation+1 || q2.Seq != 1 {
		t.Fatalf("generation bookkeeping: %+v", q2)
	}
	if q2.Area != ref.Area || q2.CPPS != ref.CPPS || q2.Iterations != ref.Iterations {
		t.Fatalf("rebuilt session lost the edit: %+v vs %+v", q2, ref)
	}
	// A never-edited control must answer differently (the edit is real).
	ctl, err := c.Submit(ctx, &SubmitRequest{ID: "ctl", Circuit: "adder16"})
	if err != nil {
		t.Fatal(err)
	}
	qc, err := c.Query(ctx, "ctl", &QueryRequest{TargetPS: 0.6 * ctl.MinDelayPS})
	if err != nil {
		t.Fatal(err)
	}
	if qc.Area == q2.Area && qc.CPPS == q2.CPPS {
		t.Fatal("edited and pristine sessions answered identically")
	}
	// Replay must not re-count the batch in the server stats.
	if got := srv.edits.Load(); got != 1 {
		t.Fatalf("edit counter %d after replay, want 1", got)
	}
}

// TestServeEditStructural exercises a rewire through the wire format.
func TestServeEditStructural(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	// c17 gate 3 is G19 with pin 0 driven by G11, whose other fanout
	// (G16) keeps it alive after the rewire to PI G1.
	if _, err := c.Submit(ctx, &SubmitRequest{ID: "s", Circuit: "c17"}); err != nil {
		t.Fatal(err)
	}
	er, err := c.Edit(ctx, "s", &EditRequest{Edits: []EditOp{{Op: "rewire", Gate: 3, Pin: 0, Driver: "G1"}}})
	if err != nil {
		t.Fatalf("structural edit: %v", err)
	}
	if !er.Structural || !er.Rebuilt {
		t.Fatalf("rewire misreported: %+v", er)
	}
	q, err := c.Query(ctx, "s", &QueryRequest{TargetPS: er.CPPS * 0.8})
	if err != nil || q.Error != nil {
		t.Fatalf("post-rewire query: %v %+v", err, q)
	}
}

// TestParseRetryAfter is the regression for the client's Retry-After
// parsing: both RFC 9110 forms must be understood.
func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("3"); d != 3*time.Second {
		t.Fatalf("seconds form: %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Fatalf("empty: %v", d)
	}
	if d := parseRetryAfter("-5"); d != 0 {
		t.Fatalf("negative seconds: %v", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Fatalf("garbage: %v", d)
	}
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d < 80*time.Second || d > 90*time.Second {
		t.Fatalf("HTTP-date form: %v", d)
	}
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Fatalf("past HTTP-date: %v", d)
	}
}

// TestClientHonorsHTTPDateRetryAfter: the retry loop must wait out an
// HTTP-date Retry-After the same way it waits out delay-seconds.
func TestClientHonorsHTTPDateRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var last atomic.Int64
	var gapOK atomic.Bool
	gapOK.Store(true)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		now := time.Now().UnixNano()
		if prev := last.Swap(now); prev != 0 && n <= 2 {
			if time.Duration(now-prev) < 900*time.Millisecond {
				gapOK.Store(false)
			}
		}
		if n == 1 {
			// Two seconds out: HTTP-dates carry whole-second precision,
			// so a one-second hint can round down to nearly zero.
			w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
			writeJSON(w, http.StatusTooManyRequests, &ErrorBody{Code: CodeOverloaded, Message: "busy"})
			return
		}
		writeJSON(w, http.StatusOK, &StatsResponse{Sessions: 3})
	}))
	defer hs.Close()

	c := NewClient(hs.URL, hs.Client())
	c.BaseDelay = time.Millisecond // the header must dominate the backoff
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 3 || calls.Load() != 2 {
		t.Fatalf("retry loop: %+v calls=%d", st, calls.Load())
	}
	if !gapOK.Load() {
		t.Fatal("client retried before the HTTP-date Retry-After elapsed")
	}
}

// TestServeQueryCanceledBeforeStart: a query whose client left before
// the worker picked it up answers without a solve.  It takes no seq,
// so the next live query, the first after an edit, answers
// bit-identically to a core.NewEcoSession twin that never saw it.
func TestServeQueryCanceledBeforeStart(t *testing.T) {
	cfg := Config{TrustRegion: 0.05}
	srv, _, c := newTestServer(t, cfg)
	ctx := context.Background()
	sub := submitCircuit(t, c, "cx", "adder16")

	tc, err := srv.buildCircuit(SubmitRequest{Circuit: "adder16"})
	if err != nil {
		t.Fatal(err)
	}
	teco, err := dag.NewEco(tc, srv.model)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := core.NewEcoSession(teco, core.Options{TrustRegion: cfg.TrustRegion})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()

	T := 0.6 * sub.MinDelayPS
	q1, err := c.Query(ctx, "cx", &QueryRequest{TargetPS: T})
	if err != nil || q1.Error != nil {
		t.Fatalf("first query: %v %+v", err, q1)
	}
	if _, err := twin.Resize(ctx, T, core.Budgets{}); err != nil {
		t.Fatal(err)
	}
	// The same load edit on a near-output gate on both sides.
	lg := sub.NumGates - 1
	if _, err := c.Edit(ctx, "cx", &EditRequest{Edits: []EditOp{{Op: "load", Gate: lg, LoadFF: 25}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.ApplyEdits([]dag.Edit{{Op: dag.EditLoad, Gate: lg, LoadFF: 25}}); err != nil {
		t.Fatal(err)
	}

	// The abandoned query goes straight to the handler with a request
	// context that is already done; the handler returns once the job is
	// queued, and the worker picks it up before the live query below.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	body := strings.NewReader(fmt.Sprintf(`{"target_ps":%g}`, 0.61*sub.MinDelayPS))
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/cx/query", body).WithContext(dead)
	srv.Handler().ServeHTTP(httptest.NewRecorder(), req)

	q2, err := c.Query(ctx, "cx", &QueryRequest{TargetPS: T, WantSizes: true})
	if err != nil || q2.Error != nil {
		t.Fatalf("live query: %v %+v", err, q2)
	}
	if q2.Seq != q1.Seq+1 {
		t.Fatalf("live query seq %d after seq %d: the abandoned query took one", q2.Seq, q1.Seq)
	}
	ref, err := twin.Resize(ctx, T, core.Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if q2.Area != ref.Area || q2.CPPS != ref.CP || q2.Iterations != ref.Iterations || q2.Seed != ref.Seed {
		t.Fatalf("served (%.17g, %.17g, %d, %s) != twin (%.17g, %.17g, %d, %s)",
			q2.Area, q2.CPPS, q2.Iterations, q2.Seed, ref.Area, ref.CP, ref.Iterations, ref.Seed)
	}
	for i := range ref.X {
		if q2.Sizes[i] != ref.X[i] {
			t.Fatalf("size[%d] %.17g != twin %.17g", i, q2.Sizes[i], ref.X[i])
		}
	}
}
