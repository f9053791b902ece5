// Package benchsnap holds the benchmark gate: parsed
// `go test -bench -benchmem` rows, the gate manifest (the benchmark
// runs, their baseline rows and the ratio rules), and the rules that
// decide pass or fail.
//
// The gate checks only numbers that do not depend on the hardware:
// allocs/op, the deterministic work counters the gated benchmarks
// report with b.ReportMetric, and ns/op ratios between two rows of
// the same run.  Absolute ns/op is recorded for reading but never
// gated.  cmd/mkbench -gate runs a manifest (bench_gate.json at the
// repo root); EXPERIMENTS.md "Benchmark gate" describes the rows.
package benchsnap

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one benchmark line of `go test -bench -benchmem`.
type BenchResult struct {
	// Pkg is the package the benchmark ran in, as given to go test
	// (set by the caller; the output line does not carry it).  Rows are
	// keyed by Pkg and Name, so equal names in two packages never meet.
	Pkg string `json:"pkg"`
	// Name is the benchmark name with the GOMAXPROCS suffix stripped
	// (BenchmarkMCMF/warm-8 -> BenchmarkMCMF/warm).
	Name string `json:"name"`
	// Iters is the measured iteration count (the b.N column).
	Iters int64 `json:"iters"`
	// NsPerOp, BytesPerOp and AllocsPerOp are the standard -benchmem
	// columns; Bytes/Allocs are -1 when -benchmem was not in effect.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds any custom b.ReportMetric columns.  In a gate
	// baseline row every metric is a deterministic work counter.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// ParseBenchOutput extracts benchmark lines from `go test -bench`
// output.  Non-benchmark lines (goos/pkg headers, PASS, ok) are
// skipped; malformed benchmark lines are an error.
func ParseBenchOutput(r io.Reader) ([]BenchResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []BenchResult
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		res := BenchResult{
			Name:        stripProcSuffix(fields[0]),
			BytesPerOp:  -1,
			AllocsPerOp: -1,
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bench: bad iteration count in %q", line)
		}
		res.Iters = iters
		// Remaining fields come in "<value> <unit>" pairs.
		if (len(fields)-2)%2 != 0 {
			return nil, fmt.Errorf("bench: odd value/unit pairing in %q", line)
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: bad value %q in %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = val
			case "B/op":
				res.BytesPerOp = val
			case "allocs/op":
				res.AllocsPerOp = val
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = val
			}
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// stripProcSuffix removes the trailing -<GOMAXPROCS> from a benchmark
// name (only the final numeric dash segment; sub-benchmark names keep
// their dashes).
func stripProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Manifest is the benchmark gate: the `go test -bench` runs, the
// benchtime they share, the same-run ratio rules, and the baseline
// rows a fresh run is compared against.
type Manifest struct {
	// Benchtime is the go test -benchtime of every run.  It must be an
	// iteration count ("3x"): the gated per-op counters are only
	// comparable at a fixed b.N.
	Benchtime string  `json:"benchtime"`
	Runs      []Run   `json:"runs"`
	Ratios    []Ratio `json:"ratios"`
	// Date and GoVersion describe the recording of Baseline.
	Date      string        `json:"date"`
	GoVersion string        `json:"go_version"`
	Baseline  []BenchResult `json:"baseline"`
}

// Run is one `go test -bench` invocation.  Bench is anchored so the
// run produces exactly the package's baseline rows.
type Run struct {
	Pkg   string `json:"pkg"`
	Bench string `json:"bench"`
}

// Ratio is a same-run speed rule: ns/op of row Slow over ns/op of row
// Fast, both in package Pkg, must be at least Min.  Both rows come
// from one process on one machine, so the ratio survives a change of
// hardware that absolute ns/op does not.
type Ratio struct {
	Pkg  string  `json:"pkg"`
	Slow string  `json:"slow"`
	Fast string  `json:"fast"`
	Min  float64 `json:"min"`
}

// WriteJSON emits the manifest as stable, human-diffable JSON
// (baseline rows sorted by package and name, two-space indent,
// trailing newline).
func (m *Manifest) WriteJSON(w io.Writer) error {
	sorted := append([]BenchResult(nil), m.Baseline...)
	sort.Slice(sorted, func(i, j int) bool { return key(&sorted[i]) < key(&sorted[j]) })
	cp := *m
	cp.Baseline = sorted
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&cp)
}

// ReadManifest parses a manifest previously written by WriteJSON.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}
