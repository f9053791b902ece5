// Command minflo sizes a combinational circuit with TILOS or
// MINFLOTRANSIT.
//
// Usage:
//
//	minflo -circuit c6288 -spec 0.5                  # synthetic benchmark
//	minflo -bench path/to/c432.bench -spec 0.4       # real ISCAS85 netlist
//	minflo -circuit adder32 -spec 0.5 -algo tilos
//	minflo -circuit c17 -spec 0.6 -mode transistor
//	minflo -circuit c17 -spec 0.6 -sizes             # dump per-gate sizes
//	minflo -circuit c6288 -spec 0.5 -budget 30s      # bounded run, best-so-far on expiry
//
// Ctrl-C cancels a running optimization gracefully: the best sizing
// reached so far is printed and the process exits with code 130.
//
// Exit codes (the single source of truth is exitCodeHelp below, also
// printed by -help): 0 success, 1 internal error, 3 infeasible target,
// 4 budget exhausted, 5 flow solver failed, 130 canceled.
//
// For repeated queries against the same circuit — sweeping targets,
// what-if cost changes — the minflod daemon (cmd/minflod) keeps the
// solver state warm between requests instead of re-solving cold; see
// its package documentation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"minflo"
)

func main() {
	var (
		circuitName = flag.String("circuit", "", "benchmark name (adder32, c432, c6288, ...)")
		benchFile   = flag.String("bench", "", "ISCAS85 .bench netlist file")
		spec        = flag.Float64("spec", 0.5, "delay target as a fraction of Dmin")
		algo        = flag.String("algo", "minflo", "sizing algorithm: minflo, tilos or lagrange")
		budget      = flag.Duration("budget", 0, "wall-clock budget for the optimization (0 = unlimited); on expiry the best sizing so far is printed and the exit code is 4")
		mode        = flag.String("mode", "gate", "sizing mode: gate or transistor")
		dumpSizes   = flag.Bool("sizes", false, "print the per-element sizes")
		report      = flag.Bool("report", false, "print a timing report after sizing")
		sweep       = flag.Bool("sweep", false, "print the TILOS-vs-MINFLO area-delay curve instead of one point")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: minflo -circuit NAME|-bench FILE [flags]\n\n")
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), exitCodeHelp)
	}
	flag.Parse()
	// First interrupt cancels the optimization (the solver unwinds at
	// its next poll point and reports best-so-far); a second interrupt
	// kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err := run(ctx, *circuitName, *benchFile, *spec, *algo, *budget, *mode, *dumpSizes, *report, *sweep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minflo:", err)
	}
	os.Exit(exitCode(err))
}

// exitCodeHelp is the one place the exit-code contract is written
// down; exitCode below implements it and the package doc points here.
const exitCodeHelp = `
exit codes:
  0    success
  1    internal error (bad input, solver failure)
  3    infeasible delay target (below what any sizing can reach)
  4    budget exhausted (-budget); best-so-far sizing was printed
  5    flow solver failed; best-so-far sizing was printed
  130  canceled by Ctrl-C; best-so-far sizing was printed

serving: for repeated queries against one circuit (target sweeps,
what-if cost changes), run the minflod daemon instead — it keeps
solver state warm between requests.  See cmd/minflod.
`

// exitCode maps the error taxonomy to distinct shell-visible codes.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, minflo.ErrCanceled):
		return 130 // conventional SIGINT exit status
	case errors.Is(err, minflo.ErrBudgetExhausted):
		return 4
	case errors.Is(err, minflo.ErrEngineFailed):
		return 5
	case errors.Is(err, minflo.ErrInfeasible):
		return 3
	default:
		return 1
	}
}

func run(ctx context.Context, circuitName, benchFile string, spec float64, algo string, budget time.Duration, mode string, dumpSizes, report, sweep bool) error {
	var ckt *minflo.Circuit
	var err error
	switch {
	case benchFile != "":
		f, err := os.Open(benchFile)
		if err != nil {
			return err
		}
		defer f.Close()
		ckt, err = minflo.ParseBench(f, benchFile)
		if err != nil {
			return err
		}
	case circuitName != "":
		ckt, err = minflo.CircuitByName(circuitName)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -circuit or -bench (e.g. -circuit c6288)")
	}
	if spec <= 0 || spec > 1 {
		return fmt.Errorf("-spec %g must be in (0, 1]", spec)
	}

	sz, err := minflo.NewSizer(&minflo.Config{Budget: budget})
	if err != nil {
		return err
	}

	st, err := ckt.ComputeStats()
	if err != nil {
		return err
	}
	fmt.Printf("circuit %s: %d gates, %d PIs, %d POs, %d levels, %d transistors\n",
		ckt.Name, st.Gates, st.PIs, st.POs, st.Levels, st.Transistors)

	if sweep {
		pts, err := sz.Sweep(ckt, []float64{0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 0.8, 0.9, 1.0})
		if err != nil {
			return err
		}
		minflo.WriteCurve(os.Stdout, ckt.Name, pts)
		return nil
	}

	if mode == "transistor" {
		dmin, err := sz.TransistorMinDelay(ckt)
		if err != nil {
			return err
		}
		fmt.Printf("Dmin (transistor DAG) = %.1f ps, target = %.1f ps\n", dmin, spec*dmin)
		res, err := sz.MinflotransitTransistors(ckt, spec*dmin)
		if err != nil {
			return err
		}
		fmt.Printf("TILOS area  = %.1f (Σ transistor widths)\n", res.TilosArea)
		fmt.Printf("MINFLO area = %.1f  (%.1f%% saved, %d iterations)\n",
			res.Area, 100*(1-res.Area/res.TilosArea), res.Iterations)
		fmt.Printf("CP = %.1f ps\n", res.CP)
		if dumpSizes {
			for i, l := range res.Labels {
				fmt.Printf("  %-24s %7.3f\n", l, res.Sizes[i])
			}
		}
		return nil
	}

	dmin, err := sz.MinDelay(ckt)
	if err != nil {
		return err
	}
	target := spec * dmin
	fmt.Printf("Dmin = %.1f ps, target = %.1f ps (%.2f·Dmin)\n", dmin, target, spec)

	var sizing *minflo.Sizing
	switch algo {
	case "tilos":
		sizing, err = sz.TILOS(ckt, target)
	case "lagrange":
		sizing, err = sz.LagrangianRelaxation(ckt, target)
	case "minflo":
		sizing, err = sz.MinflotransitCtx(ctx, ckt, target)
	default:
		return fmt.Errorf("unknown -algo %q (want minflo, tilos or lagrange)", algo)
	}
	if err != nil {
		if sizing != nil && sizing.Partial {
			// Cut short but not empty-handed: report the best feasible
			// sizing reached before the abort or failure, then surface
			// it through the exit code.
			switch {
			case errors.Is(err, minflo.ErrCanceled):
				fmt.Println("interrupted — best sizing so far:")
			case errors.Is(err, minflo.ErrBudgetExhausted):
				fmt.Println("budget exhausted — best sizing so far:")
			case errors.Is(err, minflo.ErrEngineFailed):
				fmt.Println("flow solver failed — best sizing so far:")
			}
			printSizing(ckt, sizing, algo, dumpSizes)
		}
		return err
	}

	printSizing(ckt, sizing, algo, dumpSizes)
	if report {
		fmt.Println()
		if err := sz.TimingReport(os.Stdout, ckt, target); err != nil {
			return err
		}
	}
	return nil
}

func printSizing(ckt *minflo.Circuit, sizing *minflo.Sizing, algo string, dumpSizes bool) {
	fmt.Printf("area      = %.1f (%.2f× minimum)\n", sizing.Area, sizing.Area/sizing.MinArea)
	fmt.Printf("CP        = %.1f ps\n", sizing.CP)
	if algo == "minflo" {
		fmt.Printf("TILOS ref = %.1f  → %.1f%% area saved in %d iterations\n",
			sizing.TilosArea, 100*(1-sizing.Area/sizing.TilosArea), sizing.Iterations)
	}
	if dumpSizes {
		for gi := range ckt.Gates {
			fmt.Printf("  %-24s %7.3f\n", ckt.Gates[gi].Name, ckt.Gates[gi].Size)
		}
	}
}
