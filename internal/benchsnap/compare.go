package benchsnap

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// key identifies a row: the same benchmark name in two packages is two
// rows.
func key(r *BenchResult) string { return r.Pkg + " " + r.Name }

// index maps each row's key to the row.
func index(rows []BenchResult) map[string]*BenchResult {
	m := make(map[string]*BenchResult, len(rows))
	for i := range rows {
		m[key(&rows[i])] = &rows[i]
	}
	return m
}

// Delta is the comparison of one benchmark row between the baseline
// and a fresh run.
type Delta struct {
	Pkg, Name            string
	OldNs, NewNs         float64 // for reading only; never gated
	OldAllocs, NewAllocs float64 // −1 when -benchmem was off
	AllocsPct            float64 // 100·(new−old)/old; 0 for a zero or unmeasured baseline
	// Counters pairs each work counter of the baseline row with the
	// fresh value, sorted by unit; New is NaN when the fresh row no
	// longer reports the counter.
	Counters []Counter
}

// Counter is one work counter (a b.ReportMetric unit) in both runs.
type Counter struct {
	Unit     string
	Old, New float64
}

// Compare matches rows by package and name and returns one Delta per
// row present on both sides, in the fresh run's order.  onlyOld and
// onlyNew list the unmatched rows as "pkg name" — a renamed or deleted
// benchmark must be visible, not silently dropped.
func Compare(old, new []BenchResult) (deltas []Delta, onlyOld, onlyNew []string) {
	oldBy, newBy := index(old), index(new)
	for i := range new {
		nr := &new[i]
		or := oldBy[key(nr)]
		if or == nil {
			onlyNew = append(onlyNew, key(nr))
			continue
		}
		d := Delta{
			Pkg:       nr.Pkg,
			Name:      nr.Name,
			OldNs:     or.NsPerOp,
			NewNs:     nr.NsPerOp,
			OldAllocs: or.AllocsPerOp,
			NewAllocs: nr.AllocsPerOp,
		}
		if or.AllocsPerOp > 0 {
			d.AllocsPct = 100 * (nr.AllocsPerOp - or.AllocsPerOp) / or.AllocsPerOp
		}
		for unit, v := range or.Metrics {
			fresh, ok := nr.Metrics[unit]
			if !ok {
				fresh = math.NaN()
			}
			d.Counters = append(d.Counters, Counter{Unit: unit, Old: v, New: fresh})
		}
		sort.Slice(d.Counters, func(a, b int) bool { return d.Counters[a].Unit < d.Counters[b].Unit })
		deltas = append(deltas, d)
	}
	for i := range old {
		if newBy[key(&old[i])] == nil {
			onlyOld = append(onlyOld, key(&old[i]))
		}
	}
	return deltas, onlyOld, onlyNew
}

// AllocThresholdPct is the regression threshold for allocs/op.
// Allocation counts are exact and hardware-independent, so the gate
// holds them tight.
const AllocThresholdPct = 5

// Regressed reports whether the row got worse on a hardware-independent
// number: allocs/op up more than AllocThresholdPct when both sides
// measured allocations, an allocation-free row that now allocates
// (hard-won 0 allocs/op guarantees — warm mcmf re-solves, the W-phase
// round — must not silently erode), or any work counter that rose or
// disappeared.  ns/op never counts.
func (d *Delta) Regressed() bool {
	if d.OldAllocs >= 0 && d.NewAllocs >= 0 {
		if d.AllocsPct > AllocThresholdPct {
			return true
		}
		if d.OldAllocs == 0 && d.NewAllocs > 0 {
			return true
		}
	}
	for _, c := range d.Counters {
		if !(c.New <= c.Old) { // a rise, or NaN: the counter is gone
			return true
		}
	}
	return false
}

// WriteComparison prints a per-row table of the baseline against a
// fresh run to w and returns the number of failures: regressed rows
// plus one per baseline row absent from the fresh run.  A missing row
// is an error, not an omission: a renamed or deleted benchmark
// silently skipping the gate is exactly how a regression ships, so
// each one is reported on its own line.  Fresh rows the baseline lacks
// are listed and pass.
func WriteComparison(w io.Writer, old, new []BenchResult) int {
	deltas, onlyOld, onlyNew := Compare(old, new)
	fmt.Fprintf(w, "%-16s %-44s %14s %14s %11s %8s  %s\n",
		"pkg", "benchmark", "base ns/op", "fresh ns/op", "allocs", "Δallocs", "work counters")
	failures := 0
	for i := range deltas {
		d := &deltas[i]
		allocs, dAllocs := "-", "-"
		if d.OldAllocs >= 0 && d.NewAllocs >= 0 {
			allocs = fmt.Sprintf("%.0f→%.0f", d.OldAllocs, d.NewAllocs)
			dAllocs = fmt.Sprintf("%+.1f%%", d.AllocsPct)
		}
		var counters []string
		for _, c := range d.Counters {
			counters = append(counters, fmt.Sprintf("%s %g→%g", c.Unit, c.Old, c.New))
		}
		mark := ""
		if d.Regressed() {
			mark = "  << REGRESSION"
			failures++
		}
		fmt.Fprintf(w, "%-16s %-44s %14.0f %14.0f %11s %8s  %s%s\n",
			d.Pkg, d.Name, d.OldNs, d.NewNs, allocs, dAllocs, strings.Join(counters, "  "), mark)
	}
	for _, k := range onlyOld {
		fmt.Fprintf(w, "%-61s MISSING from the fresh run  << ERROR\n", k)
		failures++
	}
	for _, k := range onlyNew {
		fmt.Fprintf(w, "%-61s only in the fresh run\n", k)
	}
	return failures
}

// CheckRatios evaluates each ratio rule on rows, prints one line per
// rule to w, and returns the number of rules that failed: a ratio
// below its floor, or a rule whose rows the run did not produce.
func CheckRatios(w io.Writer, rules []Ratio, rows []BenchResult) int {
	by := index(rows)
	failures := 0
	for _, r := range rules {
		label := fmt.Sprintf("%s %s / %s", r.Pkg, r.Slow, r.Fast)
		slow, fast := by[r.Pkg+" "+r.Slow], by[r.Pkg+" "+r.Fast]
		if slow == nil || fast == nil || fast.NsPerOp <= 0 {
			fmt.Fprintf(w, "ratio %s: rows missing  << ERROR\n", label)
			failures++
			continue
		}
		ratio := slow.NsPerOp / fast.NsPerOp
		mark := ""
		if ratio < r.Min {
			mark = "  << BELOW FLOOR"
			failures++
		}
		fmt.Fprintf(w, "ratio %s = %.1fx (floor %gx)%s\n", label, ratio, r.Min, mark)
	}
	return failures
}

// Gate compares a fresh run against the manifest — baseline rows and
// ratio rules — prints the report to w, and returns the number of
// failures.
func (m *Manifest) Gate(w io.Writer, fresh []BenchResult) int {
	failures := WriteComparison(w, m.Baseline, fresh) + CheckRatios(w, m.Ratios, fresh)
	if failures > 0 {
		fmt.Fprintf(w, "%d gate failure(s): allocs/op >%d%% or 0→>0, a work counter up, a baseline row missing, or a ratio below its floor\n",
			failures, AllocThresholdPct)
	}
	return failures
}
