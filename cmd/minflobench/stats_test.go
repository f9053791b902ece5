package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		beyond int
		ok     bool
	}{
		{100, 50, 50, 50, true},
		{100, 90, 90, 10, true},
		{100, 99, 99, 1, false},
		{1000, 99, 990, 10, true},
		{7, 50, 4, 3, false},
		{1, 50, 1, 0, false},
	} {
		q := percentile(seq(tc.n), tc.p)
		if q.Value != tc.want || q.Beyond != tc.beyond || q.OK != tc.ok || q.N != tc.n {
			t.Errorf("p%g of 1..%d = %+v, want value %g, %d beyond, ok %v", tc.p, tc.n, q, tc.want, tc.beyond, tc.ok)
		}
	}
}

func TestPercentileOmittedWithReason(t *testing.T) {
	q := percentile(seq(150), 99)
	if q.OK {
		t.Fatalf("p99 of 150 samples reported: %+v", q)
	}
	if r := q.Reason(); !strings.Contains(r, "1 of 150") || !strings.Contains(r, "need 10") {
		t.Errorf("reason %q does not give the counts", r)
	}
	if r := percentile(seq(2000), 99).Reason(); r != "" {
		t.Errorf("reported percentile has a reason: %q", r)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5.5, 1.25, 9.0, 2.0, 7.75}, [3]float64{1.625, 5.5, 8.375}},
	} {
		q1, med, q3 := quartiles(append([]float64(nil), tc.xs...))
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if q1, med, q3 := quartiles([]float64{4}); q1 != 4 || med != 4 || q3 != 4 {
		t.Errorf("single sample: %g %g %g", q1, med, q3)
	}
}

func TestMedianOverPasses(t *testing.T) {
	if m := median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("odd median %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %g", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("empty median %g", m)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "row", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "tilos.seed", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core.size", Start: 40, End: 90},
		{ID: 4, Parent: 3, Name: "mcmf.solve", Start: 45, End: 65},
		{ID: 5, Parent: 3, Name: "mcmf.solve", Start: 70, End: 80},
		{ID: 6, Name: "row", Start: 200, End: 210},
	}
	want := []int64{30, 20, 20, 20, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i+1, spans[i].Name, got[i], want[i])
		}
	}
	by := selfByName(spans, 1)
	if by["mcmf.solve"] != 30 || by["row"] != 40 || by["core.size"] != 20 {
		t.Errorf("self by name %v", by)
	}
	if by := selfByName(spans, 3); by["row"] != 10 || by["mcmf.solve"] != 30 || by["tilos.seed"] != 0 {
		t.Errorf("self by name from id 3 %v", by)
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer("test")
	root := tr.begin("row", 0)
	if err := tr.wrap("dag.build", root, func() error { time.Sleep(time.Millisecond); return nil }); err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].dur() < int64(time.Millisecond) {
		t.Fatalf("spans %+v", spans)
	}
	if s := selfTimes(spans); s[0] < 0 || s[0]+s[1] != spans[0].dur() {
		t.Errorf("self times %v do not add up to the root's %d", s, spans[0].dur())
	}
}
