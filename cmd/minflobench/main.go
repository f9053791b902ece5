// Command minflobench is the end-to-end benchmark of the minflo sizer
// and of the minflod daemon: four seeded workloads, every answer checked
// independently, end-to-end metrics from an untraced run and a per-layer
// breakdown from a separate traced pass.  README.md describes the
// workloads, the metrics and the trace format.
//
// From the repository root:
//
//	bash cmd/minflobench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//	(cd cmd/minflobench && go run . -seed 1)        # all four workloads
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the chosen workloads and prints the result; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("minflobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: "+strings.Join(workloads, ", ")+", or all")
		seed     = fs.Int64("seed", 1, "input seed; the same seed generates the same inputs")
		seconds  = fs.Float64("seconds", 20, "measurement window of each workload")
		trace    = fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
		smoke    = fs.Bool("smoke", false, "small inputs and a 1 s window; same code path and checks")
		traceTo  = fs.String("trace-out", ".bench_build/minflobench/traces", "directory for the span files of traced runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloads
	if *workload != "all" {
		names = []string{*workload}
	}
	cfg := config{
		Seed:    *seed,
		Window:  time.Duration(*seconds * float64(time.Second)),
		Setups:  3,
		Trace:   *trace != 0,
		Smoke:   *smoke,
		TraceTo: *traceTo,
	}
	if cfg.Smoke {
		cfg.Window, cfg.Setups = time.Second, 1
	}
	reps, err := runWorkloads(cfg, names, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "minflobench:", err)
		return 1
	}
	if err := writeResult(stdout, reps, cfg.Trace); err != nil {
		fmt.Fprintln(stderr, "minflobench:", err)
		return 1
	}
	return 0
}

var runners = map[string]func(config, *tracer) (*report, error){
	wTable1:      runTable1,
	wScaling:     runScaling,
	wServeRefine: runServe(wServeRefine),
	wServeEco:    runServe(wServeEco),
}

// runWorkloads runs each named workload, printing its metric lines as
// it finishes, and writes the spans of a traced run.
func runWorkloads(cfg config, names []string, w io.Writer) ([]*report, error) {
	var reps []*report
	for _, name := range names {
		runner, ok := runners[name]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloads, ", "))
		}
		tr := newTracer(fmt.Sprintf("%s-seed%d-%d", name, cfg.Seed, time.Now().UnixNano()))
		r, err := runner(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		r.print(w, cfg.Trace)
		if cfg.Trace {
			path, err := writeTrace(cfg.TraceTo, tr)
			if err != nil {
				return nil, fmt.Errorf("%s: write trace: %w", name, err)
			}
			fmt.Fprintf(w, "# %s: spans written to %s\n", name, path)
		}
		reps = append(reps, r)
	}
	return reps, nil
}
