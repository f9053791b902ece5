// Command mkbench writes the synthetic benchmark suite to .bench files
// so the circuits can be inspected or consumed by other EDA tools, and
// runs the benchmark gate:
//
//	mkbench -dir ./benchmarks                   # write .bench netlists
//	mkbench -gate bench_gate.json               # run the gate; exit 1 on failure
//	mkbench -gate bench_gate.json -snapshot     # re-record the baseline rows
//
// The gate manifest (internal/benchsnap.Manifest, bench_gate.json at the
// repo root) lists `go test -bench` runs at one shared benchtime, the
// baseline rows they produce, and same-run ratio rules.  -gate runs
// every run from the module root, prints the row table and the ratios,
// and fails on allocs/op regressions, work-counter rises, baseline rows
// missing from the fresh run, and ratios below their floors.  Absolute
// ns/op is printed but never gated.  With -snapshot it writes the fresh
// rows back as the new baseline instead, provided every ratio rule
// holds.  This is the CI benchmark gate.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"minflo"
	"minflo/internal/benchsnap"
)

func main() {
	dir := flag.String("dir", "benchmarks", "output directory for .bench files")
	gate := flag.String("gate", "", "run the benchmark gate of this manifest (e.g. bench_gate.json)")
	snapshot := flag.Bool("snapshot", false, "with -gate: re-record the manifest's baseline rows in place")
	flag.Parse()

	if *gate != "" {
		failures, err := runGate(*gate, *snapshot)
		if err != nil {
			fail(err)
		}
		if failures > 0 {
			os.Exit(1)
		}
		return
	}
	if *snapshot {
		fail(errors.New("-snapshot needs -gate"))
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fail(err)
	}
	names := append(minflo.BenchmarkNames(), "c17")
	for _, name := range names {
		ckt, err := minflo.CircuitByName(name)
		if err != nil {
			fail(err)
		}
		path := filepath.Join(*dir, name+".bench")
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		if err := minflo.WriteBench(f, ckt); err != nil {
			f.Close()
			fail(fmt.Errorf("%s: %w", name, err))
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		st, _ := ckt.ComputeStats()
		fmt.Printf("wrote %-24s (%d gates)\n", path, st.Gates)
	}
}

// runGate runs every benchmark of the manifest at path and either
// gates the fresh rows against it, returning the failure count, or
// (record) writes them back as the manifest's baseline.
func runGate(path string, record bool) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	m, err := benchsnap.ReadManifest(bytes.NewReader(raw))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Runs) == 0 {
		return 0, fmt.Errorf("%s: no runs", path)
	}
	var fresh []benchsnap.BenchResult
	for _, run := range m.Runs {
		rows, err := runBench(run, m.Benchtime)
		if err != nil {
			return 0, err
		}
		fresh = append(fresh, rows...)
	}
	if !record {
		return m.Gate(os.Stdout, fresh), nil
	}
	if n := benchsnap.CheckRatios(os.Stdout, m.Ratios, fresh); n > 0 {
		return 0, fmt.Errorf("not recording: %d ratio rule(s) fail on this run", n)
	}
	m.Baseline = fresh
	m.Date = time.Now().Format("2006-01-02")
	m.GoVersion = runtime.Version()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return 0, err
	}
	fmt.Printf("recorded %d baseline rows in %s\n", len(fresh), path)
	return 0, nil
}

// runBench runs one manifest entry with -benchmem and returns its rows
// keyed by the entry's package.
//
// The test binary runs on one P with the collector off (testing still
// collects between runs, so memory stays bounded by one run).  Both
// keep allocs/op a property of the code: on several Ps, goroutines
// hopping between per-P caches and new OS threads add allocations, and
// a collection inside the timed region empties sync.Pools whose refill
// counts too — measured at up to +9% on rows the gate holds to 5%.
func runBench(run benchsnap.Run, benchtime string) ([]benchsnap.BenchResult, error) {
	cmd := exec.Command("go", "test", "-exec=env GOMAXPROCS=1 GOGC=off", "-run=^$", "-bench="+run.Bench,
		"-benchmem", "-benchtime="+benchtime, run.Pkg)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, os.Stderr) // live progress + capture
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: benchmark run failed: %w", run.Pkg, err)
	}
	rows, err := benchsnap.ParseBenchOutput(&stdout)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", run.Pkg, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines matched -bench=%s", run.Pkg, run.Bench)
	}
	for i := range rows {
		rows[i].Pkg = run.Pkg
	}
	return rows, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mkbench:", err)
	os.Exit(1)
}
