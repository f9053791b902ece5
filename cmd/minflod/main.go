// Command minflod serves warm sizing sessions over HTTP/JSON: submit
// a netlist once, then stream queries — new delay targets, what-if
// cost changes, re-sizes — answered from warm solver state by
// incremental re-flow instead of cold solves.  Netlist edits (ECOs)
// stream through the same session: extra loads, cell swaps, and
// rewires patch the resident state in place instead of resubmitting.
//
// Usage:
//
//	minflod -addr :7317
//	minflod -addr :7317 -mem-high 512MiB -max-pending 64
//	minflod -addr :7317 -edit-cone-budget 0.5
//
// Endpoints:
//
//	POST   /v1/sessions            submit a netlist → session id
//	POST   /v1/sessions/{id}/query sizing query against warm state
//	POST   /v1/sessions/{id}/edit  apply a netlist edit batch (atomic)
//	GET    /v1/sessions/{id}       session metadata
//	DELETE /v1/sessions/{id}       evict a session
//	GET    /healthz                liveness (200 while the process runs)
//	GET    /readyz                 readiness (503 while draining)
//	GET    /stats                  admission/memory/failure counters
//
// An edit batch is all-or-nothing: the whole batch validates before
// anything applies, and a rejected batch (400) leaves the session
// bit-identical to never having received it.  Value edits ("retype",
// "load") patch delay rows in place and repair arrivals over the
// edit's timing cone; "rewire", "add", and "remove" change the graph
// and rebuild the session's solver state ("add" inserts a named gate
// whose inputs may reference other adds in the same batch, "remove"
// deletes a dead gate and shifts higher indices down).  An edit whose
// cone exceeds the -edit-cone-budget fraction of the circuit drops
// the trust-region seed (the next query runs cold) and is counted in
// /stats as edit_fallbacks_total.
//
// With -trust-region δ (default 0.05), a query starts from the
// session's previous converged sizing instead of a TILOS restart
// unless an area-weight edit since moved more than δ.  A target within
// δ of the previous one is a refinement on a short endgame schedule;
// one beyond δ is a far jump ("far_seed" in the answer) on the cold
// window schedule (far_seeded_total / far_seed_fallbacks_total in
// /stats), unless it lies within δ of an earlier converged answer of
// the session: each session keeps a small library of those, and a
// jump back into a solved region is a refinement from it
// ("library_seed", library_seeded_total).  Any accepted weight or edit
// batch empties the library.  A query after a value-only edit batch
// that kept the seed is a warm refinement of the whole circuit.
//
// Overload answers 429 with Retry-After; shutdown (SIGINT/SIGTERM)
// drains in-flight work, returning best-so-far partial answers at the
// drain deadline.  See internal/serve for the full protocol,
// including the error-code taxonomy.
//
// Exit codes: 0 clean shutdown, 1 startup or serve failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"minflo/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7317", "listen address")
		maxInflight = flag.Int("max-inflight", 0, "concurrently executing solves (0 = GOMAXPROCS)")
		maxPending  = flag.Int("max-pending", 64, "globally admitted-but-unfinished requests before 429")
		queueDepth  = flag.Int("queue-depth", 8, "per-session request queue before 429")
		memHigh     = flag.String("mem-high", "1GiB", "session-cache high watermark (eviction trigger), e.g. 512MiB")
		memLow      = flag.String("mem-low", "", "eviction target (default 3/4 of -mem-high)")
		drain       = flag.Duration("drain", 5*time.Second, "shutdown drain deadline; in-flight queries still running at the deadline return best-so-far partial answers")
		trustRegion = flag.Float64("trust-region", 0.05, "start queries from the session's previous answer unless an area-weight edit since moved more than this relative amount; a target move within it is a refinement, one beyond it a far jump on the cold window schedule unless it lands within it of an earlier answer the session kept, which it then refines (0 disables; answers become deterministic given session history, see internal/core)")
		editCone    = flag.Float64("edit-cone-budget", 0, "drop a session's warm seed when a netlist edit's timing cone exceeds this fraction of the circuit (0 = default 0.25, negative disables the check)")
	)
	flag.Parse()
	if err := run(*addr, *maxInflight, *maxPending, *queueDepth, *memHigh, *memLow, *drain, *trustRegion, *editCone); err != nil {
		fmt.Fprintln(os.Stderr, "minflod:", err)
		os.Exit(1)
	}
}

func run(addr string, maxInflight, maxPending, queueDepth int, memHigh, memLow string, drain time.Duration, trustRegion, editCone float64) error {
	high, err := parseBytes(memHigh)
	if err != nil {
		return fmt.Errorf("-mem-high: %w", err)
	}
	var low int64
	if memLow != "" {
		if low, err = parseBytes(memLow); err != nil {
			return fmt.Errorf("-mem-low: %w", err)
		}
	}
	srv, err := serve.New(serve.Config{
		MaxInFlight:    maxInflight,
		MaxPending:     maxPending,
		QueueDepth:     queueDepth,
		MemHighBytes:   high,
		MemLowBytes:    low,
		DrainTimeout:   drain,
		TrustRegion:    trustRegion,
		EditConeBudget: editCone,
	})
	if err != nil {
		return err
	}

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("minflod listening on %s (mem-high=%s)", addr, memHigh)
		errCh <- hs.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		log.Printf("minflod: %s — draining (deadline %s)", sig, drain)
	}

	// Drain the session workers first (in-flight queries finish or come
	// back partial at the deadline), then close the listener.
	ctx, cancel := context.WithTimeout(context.Background(), drain+2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	log.Printf("minflod: drained, bye")
	return nil
}

// parseBytes reads sizes like "512MiB", "1GiB", "64MB", "1048576".
func parseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10},
		{"GB", 1e9}, {"MB", 1e6}, {"KB", 1e3}, {"B", 1},
	} {
		if strings.HasSuffix(t, u.suffix) {
			mult = u.mult
			t = strings.TrimSuffix(t, u.suffix)
			break
		}
	}
	n, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return int64(n * float64(mult)), nil
}
