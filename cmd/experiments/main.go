// Command experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §5 and EXPERIMENTS.md):
//
//	experiments -table1            # Table 1: area savings + CPU times
//	experiments -fig7              # Figure 7: area–delay curves (c432, c6288)
//	experiments -scaling           # §3 run-time growth across adder widths
//	experiments -iterations        # §3 iteration-count claim
//	experiments -all
//	experiments -benchdir ./iscas85 -spec 0.5   # Table-1 sweep over real .bench netlists
//
// -benchdir replaces the synthetic stand-in circuits with a directory
// of real ISCAS85 .bench files (parsed by internal/bench): every
// *.bench file in the directory becomes one table row at -spec·Dmin.
//
// -engine selects the D-phase flow backend (ssp or costscaling — or
// auto, the default, which selects ssp) for every mode.
//
// Table 1 runs the full 12-circuit suite and takes a few minutes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"minflo"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "reproduce Table 1")
		fig7     = flag.Bool("fig7", false, "reproduce Figure 7 (c432 and c6288 curves)")
		scaling  = flag.Bool("scaling", false, "run-time scaling across adder sizes (§3)")
		iters    = flag.Bool("iterations", false, "iteration counts across the suite (§3)")
		lagr     = flag.Bool("lagrangian", false, "compare against the reference-[8] Lagrangian sizer")
		all      = flag.Bool("all", false, "run everything")
		quick    = flag.Bool("quick", false, "restrict Table 1 to the small circuits")
		engine   = flag.String("engine", "auto", "D-phase flow engine: auto (= ssp), ssp or costscaling")
		benchdir = flag.String("benchdir", "", "directory of .bench netlists: run a table sweep over every *.bench file in it")
		spec     = flag.Float64("spec", 0.5, "delay spec (fraction of Dmin) for -benchdir rows")
	)
	flag.Parse()
	if *all {
		*table1, *fig7, *scaling, *iters, *lagr = true, true, true, true, true
	}
	if !*table1 && !*fig7 && !*scaling && !*iters && !*lagr && *benchdir == "" {
		flag.Usage()
		os.Exit(2)
	}
	sz, err := minflo.NewSizer(&minflo.Config{FlowEngine: *engine})
	if err != nil {
		fail(err)
	}
	if *benchdir != "" {
		runBenchDir(sz, *benchdir, *spec)
	}
	if *table1 {
		runTable1(sz, *quick)
	}
	if *fig7 {
		runFig7(sz)
	}
	if *scaling {
		runScaling(sz)
	}
	if *iters {
		runIterations(sz, *quick)
	}
	if *lagr {
		runLagrangian(sz)
	}
}

// runLagrangian compares all three optimizers (§1: TILOS heuristic,
// the exact competitor [8], and MINFLOTRANSIT) on a common subset.
func runLagrangian(sz *minflo.Sizer) {
	fmt.Println("== Three-optimizer comparison (TILOS / Lagrangian [8] / MINFLOTRANSIT) ==")
	fmt.Printf("%-10s %6s %12s %12s %12s\n", "circuit", "spec", "TILOS", "Lagrangian", "MINFLO")
	for _, name := range []string{"c17", "adder32", "c432", "c880", "c1355"} {
		ckt, err := minflo.CircuitByName(name)
		if err != nil {
			fail(err)
		}
		spec := minflo.PaperSpec(name)
		dmin, err := sz.MinDelay(ckt)
		if err != nil {
			fail(err)
		}
		T := spec * dmin
		tl, err1 := sz.TILOS(ckt.Clone(), T)
		lr, err2 := sz.LagrangianRelaxation(ckt.Clone(), T)
		mf, err3 := sz.Minflotransit(ckt.Clone(), T)
		if err1 != nil || err2 != nil || err3 != nil {
			fmt.Printf("%-10s skipped (%v %v %v)\n", name, err1, err2, err3)
			continue
		}
		fmt.Printf("%-10s %6.2f %12.1f %12.1f %12.1f\n", name, spec, tl.Area, lr.Area, mf.Area)
	}
	fmt.Println()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// runBenchDir is the real-suite mode (ROADMAP "ISCAS85 ingestion"):
// every *.bench netlist in dir becomes one Table-1-style row at
// spec·Dmin, parsed with the internal/bench reader and run through the
// same parallel RunTable harness as the synthetic suite.
func runBenchDir(sz *minflo.Sizer, dir string, spec float64) {
	if _, err := benchDirTable(sz, dir, spec, os.Stdout); err != nil {
		fail(err)
	}
}

// benchDirTable is the testable core of -benchdir: it parses every
// *.bench file in dir (alphabetical), runs the table sweep at
// spec·Dmin, writes progress and the formatted table to w, and
// returns the successful rows in suite order (TestBenchDirGolden
// checks them against a checked-in golden table).  Malformed netlists
// and infeasible rows are reported to w and skipped, not fatal.
func benchDirTable(sz *minflo.Sizer, dir string, spec float64, w io.Writer) ([]*minflo.TableRow, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.bench"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no *.bench files in %s", dir)
	}
	sort.Strings(paths)
	fmt.Fprintf(w, "== %d netlists from %s at %.2f·Dmin ==\n", len(paths), dir, spec)
	var jobs []minflo.TableJob
	var names []string
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(path), ".bench")
		ckt, perr := minflo.ParseBench(f, name)
		f.Close()
		if perr != nil {
			// A malformed netlist skips its row, not the whole suite.
			fmt.Fprintf(w, "%-12s parse error: %v\n", name, perr)
			continue
		}
		jobs = append(jobs, minflo.TableJob{Circuit: ckt, Spec: spec})
		names = append(names, name)
	}
	rows, errs := sz.RunTable(jobs)
	var ok []*minflo.TableRow
	for i := range rows {
		if errs[i] != nil {
			fmt.Fprintf(w, "%-12s %v\n", names[i], errs[i])
			continue
		}
		ok = append(ok, rows[i])
	}
	minflo.WriteTable(w, ok)
	fmt.Fprintln(w)
	return ok, nil
}

func runTable1(sz *minflo.Sizer, quick bool) {
	fmt.Println("== Table 1: area savings of MINFLOTRANSIT over TILOS ==")
	names := minflo.BenchmarkNames()
	if quick {
		names = []string{"adder32", "c432", "c499", "c880"}
	}
	jobs := make([]minflo.TableJob, 0, len(names))
	for _, name := range names {
		ckt, err := minflo.CircuitByName(name)
		if err != nil {
			fail(err)
		}
		jobs = append(jobs, minflo.TableJob{Circuit: ckt, Spec: minflo.PaperSpec(name)})
	}
	// Rows run concurrently (one worker per core); results keep suite order.
	got, errs := sz.RunTable(jobs)
	var rows []*minflo.TableRow
	for i, row := range got {
		if errs[i] != nil {
			fmt.Printf("%-10s %v\n", names[i], errs[i])
			continue
		}
		rows = append(rows, row)
		minflo.WriteTable(os.Stdout, rows[len(rows)-1:])
	}
	fmt.Println()
	fmt.Println("-- full table --")
	minflo.WriteTable(os.Stdout, rows)
	fmt.Println()
}

func runFig7(sz *minflo.Sizer) {
	fmt.Println("== Figure 7: comparative area-delay curves ==")
	fracs := []float64{0.40, 0.45, 0.50, 0.55, 0.60, 0.70, 0.80, 0.90, 1.00}
	for _, name := range []string{"c432", "c6288"} {
		ckt, err := minflo.CircuitByName(name)
		if err != nil {
			fail(err)
		}
		t0 := time.Now()
		pts, err := sz.Sweep(ckt, fracs)
		if err != nil {
			fail(err)
		}
		minflo.WriteCurve(os.Stdout, ckt.Name, pts)
		fmt.Printf("(%s sweep took %v)\n\n", name, time.Since(t0).Round(time.Millisecond))
	}
}

func runScaling(sz *minflo.Sizer) {
	fmt.Println("== Run-time scaling on ripple-carry adders (§3) ==")
	fmt.Printf("%8s %8s %14s %14s %8s\n", "bits", "gates", "t(TILOS)", "t(MINFLO tot)", "ratio")
	for _, bits := range []int{16, 32, 64, 128, 256} {
		ckt, err := minflo.CircuitByName(fmt.Sprintf("adder%d", bits))
		if err != nil {
			fail(err)
		}
		row, err := sz.RunTableRow(ckt, 0.5)
		if err != nil {
			fmt.Printf("%8d %v\n", bits, err)
			continue
		}
		total := row.TilosTime + row.MinfloExtra
		fmt.Printf("%8d %8d %14v %14v %8.2f\n",
			bits, row.Gates, row.TilosTime.Round(time.Millisecond),
			total.Round(time.Millisecond), float64(total)/float64(row.TilosTime))
	}
	fmt.Println()
}

func runIterations(sz *minflo.Sizer, quick bool) {
	fmt.Println("== Iteration counts (§3: \"only a few tens of iterations\") ==")
	names := []string{"adder32", "c432", "c499", "c880"}
	if !quick {
		names = append(names, "c1355", "c2670", "c6288")
	}
	for _, name := range names {
		ckt, err := minflo.CircuitByName(name)
		if err != nil {
			fail(err)
		}
		row, err := sz.RunTableRow(ckt, minflo.PaperSpec(name))
		if err != nil {
			fmt.Printf("%-10s %v\n", name, err)
			continue
		}
		fmt.Printf("%-10s %3d iterations (saved %.1f%%)\n", name, row.Iterations, row.SavingsPct)
	}
	fmt.Println()
}
