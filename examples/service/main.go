// Service walkthrough: run a minflod server in-process, submit a
// circuit once, then stream queries against the warm session — a
// target sweep, a what-if cost change, a budgeted query — through the
// retrying client.  The same flow works against a standalone daemon
// (`go run minflo/cmd/minflod`), pointing the client at its address.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"minflo/internal/serve"
)

func main() {
	// An in-process server; production runs cmd/minflod instead.
	srv, err := serve.New(serve.Config{})
	if err != nil {
		log.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	ctx := context.Background()
	client := serve.NewClient(hs.URL, nil)

	// Submit once: the daemon builds the sizing problem, the timing
	// analyzer, and the flow network, and keeps them warm.
	sub, err := client.Submit(ctx, &serve.SubmitRequest{ID: "demo", Circuit: "adder16"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session %s: %d gates, Dmin = %.0f ps, ~%d KiB warm state\n\n",
		sub.ID, sub.NumGates, sub.MinDelayPS, sub.MemBytes/1024)

	// Stream a target sweep.  The first query solves cold; every later
	// one reuses the warm flow state via incremental re-flow.
	for _, spec := range []float64{0.7, 0.6, 0.5, 0.55} {
		q, err := client.Query(ctx, "demo", &serve.QueryRequest{TargetPS: spec * sub.MinDelayPS})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("target %.2f·Dmin: area %8.1f, CP %7.1f ps, %2d iterations (warm=%v)\n",
			spec, q.Area, q.CPPS, q.Iterations, q.Warm)
	}

	// What-if: make gate 0 ten times as expensive and re-ask.  The
	// override sticks for the rest of the session generation.
	q, err := client.Query(ctx, "demo", &serve.QueryRequest{
		TargetPS:    0.6 * sub.MinDelayPS,
		AreaWeights: []serve.AreaWeight{{Gate: 0, Weight: 10}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwhat-if (gate 0 at 10× cost): area %.1f at CP %.1f ps\n", q.Area, q.CPPS)

	// A budgeted query: cap the wall clock; if it expires the answer
	// comes back marked partial with the best sizing reached so far.
	q, err = client.Query(ctx, "demo", &serve.QueryRequest{
		TargetPS: 0.5 * sub.MinDelayPS,
		BudgetMS: 50,
	})
	if err != nil {
		log.Fatal(err)
	}
	if q.Error != nil {
		fmt.Printf("budgeted query stopped early (%s): partial area %.1f\n", q.Error.Code, q.Area)
	} else {
		fmt.Printf("budgeted query finished in time: area %.1f\n", q.Area)
	}

	// Server-side counters, then a graceful drain.
	st, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstats: %d session(s), %d queries, %d KiB cached\n",
		st.Sessions, st.Queries, st.MemBytes/1024)

	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained cleanly")
}
