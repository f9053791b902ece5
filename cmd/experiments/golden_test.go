package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"minflo"
)

var update = flag.Bool("update", false, "rewrite the golden table from the current run")

// goldenColumns formats the deterministic columns of a table row —
// everything except the wall-clock timings, which vary run to run.
// Areas and Dmin print at full float precision on purpose: the golden
// file doubles as a bit-determinism gate for the -benchdir pipeline.
func goldenColumns(rows []*minflo.TableRow) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-10s %6s %5s %12s %14s %14s %7s %5s\n",
		"circuit", "gates", "spec", "Dmin(ps)", "TILOS", "MINFLO", "saved%", "iters")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %6d %5.2f %12.6g %14.8g %14.8g %7.3f %5d\n",
			r.Circuit, r.Gates, r.DelaySpec, r.DminPS, r.TilosArea, r.MinfloArea,
			r.SavingsPct, r.Iterations)
	}
	return b.String()
}

// TestBenchDirGolden exercises the -benchdir pipeline end-to-end over
// the checked-in examples/iscas85 fixture set: parse every .bench
// file, size each netlist at 0.5·Dmin, and compare the resulting
// table against testdata/benchdir_golden.txt (refresh with
// `go test ./cmd/experiments -run TestBenchDirGolden -update`).
func TestBenchDirGolden(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "iscas85")
	goldenPath := filepath.Join("testdata", "benchdir_golden.txt")

	// The golden table records one exact trajectory per netlist: any
	// change to a TILOS move, a D-phase flow or a W-phase step that
	// moves an area or an iteration count shows up here.
	sz, err := minflo.NewSizer(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	rows, err := benchDirTable(sz, dir, 0.5, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows (output:\n%s)", len(rows), out.String())
	}
	table := goldenColumns(rows)

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(table), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record the golden table)", err)
	}
	if string(want) != table {
		t.Fatalf("-benchdir table drifted from golden:\ngot:\n%swant:\n%s", table, string(want))
	}
}
