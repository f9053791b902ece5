package benchsnap

import (
	"io"
	"math"
	"strings"
	"testing"
)

func TestCompareMatchesByName(t *testing.T) {
	old := []BenchResult{
		{Pkg: ".", Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 10},
		{Pkg: ".", Name: "BenchmarkGone", NsPerOp: 5, AllocsPerOp: -1},
		// Same name in another package: a separate row.
		{Pkg: "./internal/x", Name: "BenchmarkA", NsPerOp: 7, AllocsPerOp: 0},
	}
	new := []BenchResult{
		{Pkg: ".", Name: "BenchmarkA", NsPerOp: 150, AllocsPerOp: 11},
		{Pkg: ".", Name: "BenchmarkNew", NsPerOp: 7, AllocsPerOp: -1},
	}
	deltas, onlyOld, onlyNew := Compare(old, new)
	if len(deltas) != 1 || deltas[0].Pkg != "." || deltas[0].Name != "BenchmarkA" {
		t.Fatalf("deltas = %+v", deltas)
	}
	if d := deltas[0]; d.OldNs != 100 || d.NewNs != 150 || math.Abs(d.AllocsPct-10) > 1e-9 {
		t.Fatalf("delta = %+v, want ns 100→150 and AllocsPct 10", d)
	}
	if len(onlyOld) != 2 || onlyOld[0] != ". BenchmarkGone" || onlyOld[1] != "./internal/x BenchmarkA" {
		t.Fatalf("onlyOld = %q", onlyOld)
	}
	if len(onlyNew) != 1 || onlyNew[0] != ". BenchmarkNew" {
		t.Fatalf("onlyNew = %q", onlyNew)
	}
}

func TestRegressedThreshold(t *testing.T) {
	for _, tc := range []struct {
		d    Delta
		want bool
	}{
		{Delta{OldAllocs: 100, NewAllocs: 200, AllocsPct: 100}, true},
		{Delta{OldAllocs: 100, NewAllocs: 106, AllocsPct: 6}, true},
		{Delta{OldAllocs: 100, NewAllocs: 104, AllocsPct: 4}, false},
		{Delta{OldAllocs: 100, NewAllocs: 50, AllocsPct: -50}, false},
		// Unmeasured allocs (−1) never trip it.
		{Delta{OldAllocs: -1, NewAllocs: 50}, false},
		// Losing a 0-allocs guarantee always trips it.
		{Delta{OldAllocs: 0, NewAllocs: 1}, true},
		{Delta{OldAllocs: 0, NewAllocs: 0}, false},
		// Work counters: any rise trips it, a drop or tie does not, and
		// a counter the fresh row no longer reports (NaN) trips it.
		{Delta{Counters: []Counter{{"visited/op", 1000, 1001}}}, true},
		{Delta{Counters: []Counter{{"visited/op", 1000, 1000}, {"augs/op", 25, 24}}}, false},
		{Delta{Counters: []Counter{{"iters/op", 5, math.NaN()}}}, true},
	} {
		if got := tc.d.Regressed(); got != tc.want {
			t.Fatalf("Regressed(%+v) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

// TestGateRules drives Manifest.Gate through each rule: a fresh run
// fails on allocs, work counters, ratios and missing rows, and never
// on ns/op alone.
func TestGateRules(t *testing.T) {
	row := func(pkg, name string, ns, allocs float64, metrics map[string]float64) BenchResult {
		return BenchResult{Pkg: pkg, Name: name, Iters: 3, NsPerOp: ns, BytesPerOp: 64, AllocsPerOp: allocs, Metrics: metrics}
	}
	base := func() []BenchResult {
		return []BenchResult{
			row(".", "BenchmarkWarm", 1000, 0, nil),
			row(".", "BenchmarkFresh", 5000, 100, map[string]float64{"visited/op": 1200, "augs/op": 25}),
			row(".", "BenchmarkSlow", 90000, 40, nil),
			// Same name as a root row, in another package.
			row("./internal/x", "BenchmarkWarm", 200, 7, nil),
		}
	}
	m := &Manifest{
		Benchtime: "3x",
		Ratios:    []Ratio{{Pkg: ".", Slow: "BenchmarkSlow", Fast: "BenchmarkFresh", Min: 5}},
		Baseline:  base(),
	}
	for _, tc := range []struct {
		name  string
		edit  func(rows []BenchResult) []BenchResult
		fails int
	}{
		{"unchanged", func(r []BenchResult) []BenchResult { return r }, 0},
		{"allocs +6%", func(r []BenchResult) []BenchResult { r[1].AllocsPerOp = 106; return r }, 1},
		{"allocs +4%", func(r []BenchResult) []BenchResult { r[1].AllocsPerOp = 104; return r }, 0},
		{"allocs 0→1", func(r []BenchResult) []BenchResult { r[0].AllocsPerOp = 1; return r }, 1},
		{"counter up by one", func(r []BenchResult) []BenchResult {
			r[1].Metrics = map[string]float64{"visited/op": 1201, "augs/op": 25}
			return r
		}, 1},
		{"counter down", func(r []BenchResult) []BenchResult {
			r[1].Metrics = map[string]float64{"visited/op": 900, "augs/op": 20}
			return r
		}, 0},
		{"ratio below floor", func(r []BenchResult) []BenchResult { r[2].NsPerOp = 20000; return r }, 1},
		{"baseline row missing", func(r []BenchResult) []BenchResult { return r[1:] }, 1},
		{"ratio row missing", func(r []BenchResult) []BenchResult { return append(r[:2], r[3]) }, 2}, // the row and its rule
		{"extra fresh row", func(r []BenchResult) []BenchResult {
			return append(r, row(".", "BenchmarkNew", 1, 1e6, map[string]float64{"visited/op": 1e9}))
		}, 0},
		{"ns/op x1.5 alone", func(r []BenchResult) []BenchResult {
			for i := range r {
				r[i].NsPerOp *= 1.5
			}
			return r
		}, 0},
		{"same name, other package", func(r []BenchResult) []BenchResult { r[3].AllocsPerOp = 8; return r }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			if got := m.Gate(&sb, tc.edit(base())); got != tc.fails {
				t.Fatalf("failures = %d, want %d; report:\n%s", got, tc.fails, sb.String())
			}
		})
	}
}

func TestWriteComparisonCountsRegressions(t *testing.T) {
	old := []BenchResult{
		{Pkg: ".", Name: "BenchmarkFast", NsPerOp: 100, AllocsPerOp: 4},
		{Pkg: ".", Name: "BenchmarkLeaky", NsPerOp: 100, AllocsPerOp: 4},
		{Pkg: ".", Name: "BenchmarkWork", NsPerOp: 100, AllocsPerOp: 4, Metrics: map[string]float64{"iters/op": 5}},
	}
	new := []BenchResult{
		{Pkg: ".", Name: "BenchmarkFast", NsPerOp: 300, AllocsPerOp: 4},
		{Pkg: ".", Name: "BenchmarkLeaky", NsPerOp: 90, AllocsPerOp: 8},
		{Pkg: ".", Name: "BenchmarkWork", NsPerOp: 90, AllocsPerOp: 4, Metrics: map[string]float64{"iters/op": 6}},
	}
	var sb strings.Builder
	if got := WriteComparison(&sb, old, new); got != 2 {
		t.Fatalf("regressions = %d, want 2; output:\n%s", got, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"REGRESSION", "4→8", "iters/op 5→6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Δns") {
		t.Fatalf("ns/op delta column is back:\n%s", out)
	}
}

// TestWriteComparisonMissingBenchmarkFails: a row present in the
// baseline but absent from the fresh run is a per-row error that fails
// the gate — a renamed or deleted benchmark must not slip through
// silently.
func TestWriteComparisonMissingBenchmarkFails(t *testing.T) {
	old := []BenchResult{
		{Pkg: ".", Name: "BenchmarkKept", NsPerOp: 100, AllocsPerOp: 4},
		{Pkg: ".", Name: "BenchmarkGone", NsPerOp: 100, AllocsPerOp: 4},
		{Pkg: "./internal/x", Name: "BenchmarkAlsoGone", NsPerOp: 50, AllocsPerOp: 0},
	}
	new := []BenchResult{
		{Pkg: ".", Name: "BenchmarkKept", NsPerOp: 100, AllocsPerOp: 4},
	}
	var sb strings.Builder
	if got := WriteComparison(&sb, old, new); got != 2 {
		t.Fatalf("failures = %d, want 2 (one per missing row); output:\n%s", got, sb.String())
	}
	out := sb.String()
	for _, k := range []string{". BenchmarkGone", "./internal/x BenchmarkAlsoGone"} {
		if !strings.Contains(out, k) {
			t.Fatalf("missing per-row error for %s:\n%s", k, out)
		}
	}
	if strings.Count(out, "MISSING from the fresh run") != 2 {
		t.Fatalf("want two error markers:\n%s", out)
	}
	if WriteComparison(io.Discard, new, old) != 0 {
		t.Fatal("rows only in the fresh run must pass")
	}
}
