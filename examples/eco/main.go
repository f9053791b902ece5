// ECO walkthrough: edit a netlist inside a warm sizing session
// instead of resubmitting it.  The flow below submits an adder once,
// sizes it, then streams engineering change orders — an extra fixed
// load on a net, a cell swap, a fanout rewire — through POST
// /v1/sessions/{id}/edit.  Value edits patch the resident coupling
// rows in place and repair arrivals over the edit's timing cone; a
// structural rewire rebuilds the D-phase state; either way the next
// query answers from the edited netlist without a resubmit, and a
// rejected batch leaves the session bit-identical to never having
// received it.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"minflo/internal/serve"
)

func main() {
	srv, err := serve.New(serve.Config{TrustRegion: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	ctx := context.Background()
	client := serve.NewClient(hs.URL, nil)

	sub, err := client.Submit(ctx, &serve.SubmitRequest{ID: "eco", Circuit: "adder16"})
	if err != nil {
		log.Fatal(err)
	}
	T := 0.6 * sub.MinDelayPS
	fmt.Printf("session %s: %d gates, Dmin = %.0f ps\n\n", sub.ID, sub.NumGates, sub.MinDelayPS)

	q, err := client.Query(ctx, "eco", &serve.QueryRequest{TargetPS: T})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline sizing:            area %8.1f, CP %7.1f ps, %2d iterations\n",
		q.Area, q.CPPS, q.Iterations)

	// ECO 1 (value edit): the place-and-route tool reports 20 fF of
	// extra wire load on a near-output net.  The edit patches the
	// resident delay rows — note the cone: only the gates downstream of
	// the edit can move, and only their arrivals are repaired.
	er, err := client.Edit(ctx, "eco", &serve.EditRequest{Edits: []serve.EditOp{
		{Op: "load", Gate: sub.NumGates - 1, LoadFF: 20},
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\neco 1: +20 fF load          cone %d/%d gates (%.1f%%), rebuilt=%v, seed kept=%v\n",
		er.ConeGates, sub.NumGates, 100*er.ConeFrac, er.Rebuilt, er.SeedKept)
	q, err = client.Query(ctx, "eco", &serve.QueryRequest{TargetPS: T})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-sized after eco 1:       area %8.1f, CP %7.1f ps, %2d iterations (seed %q)\n",
		q.Area, q.CPPS, q.Iterations, q.Seed)

	// ECO 2 (batch, atomic): clear the load again and swap a cell —
	// adder16's output gates are single-input buffers, so BUF→INV is
	// the legal drive swap here.  Batches validate as a whole: if any
	// entry is bad, nothing applies (try "NAND9" to see the 400).
	er, err = client.Edit(ctx, "eco", &serve.EditRequest{Edits: []serve.EditOp{
		{Op: "load", Gate: sub.NumGates - 1, LoadFF: 0},
		{Op: "retype", Gate: sub.NumGates - 1, Cell: "INV"},
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\neco 2: unload + retype      %d rows patched, CP now %.1f ps at current sizes\n",
		er.ChangedRows, er.CPPS)

	// ECO 3 (structural): a rewire is a DAG change — when accepted, the
	// daemon rebuilds the D-phase solver state for this session (still
	// no resubmit).  On this netlist the output buffer's driver has no
	// other fanout, so the edit is *rejected* instead: the daemon
	// refuses to leave a gate driving nothing, and because batches are
	// atomic the session state is untouched — which is the other half
	// of the contract worth seeing.
	er, err = client.Edit(ctx, "eco", &serve.EditRequest{Edits: []serve.EditOp{
		{Op: "rewire", Gate: sub.NumGates - 1, Pin: 0, Driver: "a0"},
	}})
	if err != nil {
		fmt.Printf("\neco 3: rewire rejected (%v) — batches are atomic, nothing changed\n", err)
	} else {
		fmt.Printf("\neco 3: rewire               structural=%v rebuilt=%v\n", er.Structural, er.Rebuilt)
	}

	q, err = client.Query(ctx, "eco", &serve.QueryRequest{TargetPS: T})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final sizing:               area %8.1f, CP %7.1f ps\n", q.Area, q.CPPS)

	st, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserver: %d edit batches accepted, %d cone-budget fallbacks\n",
		st.Edits, st.EditFallbacks)
}
