package benchsnap

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: minflo
cpu: Example CPU @ 2.00GHz
BenchmarkMCMF/fresh-8         	     100	  11039022 ns/op	 1474707 B/op	   12182 allocs/op
BenchmarkMCMF/warm-8          	     150	   7039022 ns/op	       0 B/op	       0 allocs/op
BenchmarkSTA-8                	    2000	    628702 ns/op	  271373 B/op	      17 allocs/op
BenchmarkTable1/c432-8        	       1	1318478778 ns/op	       31.96 saved%	 4343 area
PASS
ok  	minflo	12.345s
`

func TestParseBenchOutput(t *testing.T) {
	rs, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("got %d results, want 4", len(rs))
	}
	if rs[0].Name != "BenchmarkMCMF/fresh" {
		t.Errorf("name = %q (proc suffix not stripped?)", rs[0].Name)
	}
	if rs[0].Iters != 100 || rs[0].NsPerOp != 11039022 || rs[0].AllocsPerOp != 12182 {
		t.Errorf("unexpected first row: %+v", rs[0])
	}
	if rs[1].AllocsPerOp != 0 || rs[1].BytesPerOp != 0 {
		t.Errorf("warm row should have zero allocs: %+v", rs[1])
	}
	if got := rs[3].Metrics["saved%"]; got != 31.96 {
		t.Errorf("custom metric saved%% = %v, want 31.96", got)
	}
	if got := rs[3].Metrics["area"]; got != 4343 {
		t.Errorf("custom metric area = %v, want 4343", got)
	}
}

func TestParseBenchOutputNoBenchmem(t *testing.T) {
	rs, err := ParseBenchOutput(strings.NewReader("BenchmarkX-4\t10\t123 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].BytesPerOp != -1 || rs[0].AllocsPerOp != -1 {
		t.Fatalf("want sentinel -1 for missing benchmem columns, got %+v", rs)
	}
}

func TestParseBenchOutputMalformed(t *testing.T) {
	if _, err := ParseBenchOutput(strings.NewReader("BenchmarkX-4\tnotanumber\t123 ns/op\n")); err == nil {
		t.Fatal("want error for bad iteration count")
	}
	if _, err := ParseBenchOutput(strings.NewReader("BenchmarkX-4\t10\t123 ns/op extra\n")); err == nil {
		t.Fatal("want error for odd value/unit pairing")
	}
}

// TestSnapshotRoundTrip writes a manifest with recorded baseline rows,
// reads it back, and requires equal rows, sorted by package and name.
func TestSnapshotRoundTrip(t *testing.T) {
	rs, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		rs[i].Pkg = "."
	}
	rs = append(rs, BenchResult{Pkg: "./internal/x", Name: "BenchmarkMCMF/warm", Iters: 3, NsPerOp: 9,
		BytesPerOp: 0, AllocsPerOp: 0, Metrics: map[string]float64{"visited/op": 1234}})
	m := &Manifest{
		Benchtime: "3x",
		Runs:      []Run{{Pkg: ".", Bench: "^(BenchmarkMCMF|BenchmarkSTA|BenchmarkTable1)$"}},
		Ratios:    []Ratio{{Pkg: ".", Slow: "BenchmarkMCMF/fresh", Fast: "BenchmarkMCMF/warm", Min: 1.2}},
		Date:      "2026-07-29",
		GoVersion: "go1.24.0",
		Baseline:  rs,
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Benchtime != m.Benchtime || back.Date != m.Date || back.GoVersion != m.GoVersion ||
		!reflect.DeepEqual(back.Runs, m.Runs) || !reflect.DeepEqual(back.Ratios, m.Ratios) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if len(back.Baseline) != len(rs) {
		t.Fatalf("got %d rows back, want %d", len(back.Baseline), len(rs))
	}
	// Rows come back sorted by package and name (stable diffs) and
	// otherwise equal.
	want := index(rs)
	for i := range back.Baseline {
		r := &back.Baseline[i]
		if i > 0 && key(&back.Baseline[i-1]) > key(r) {
			t.Fatalf("rows not sorted: %q > %q", key(&back.Baseline[i-1]), key(r))
		}
		if !reflect.DeepEqual(*r, *want[key(r)]) {
			t.Fatalf("row %q: got %+v, want %+v", key(r), *r, *want[key(r)])
		}
	}
	if m.Gate(new(bytes.Buffer), back.Baseline) != 0 {
		t.Fatal("a manifest's own baseline must pass its gate")
	}
}
