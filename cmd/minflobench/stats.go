package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 from 150 samples rests on one or two values and
// would move from run to run on noise alone.
const minBeyond = 10

// quantile is one reported percentile of a latency sample.
type quantile struct {
	P      float64 // percentile in (0, 100]
	Value  float64 // nearest-rank value; meaningless unless OK
	N      int     // sample count
	Beyond int     // samples strictly above the rank
	OK     bool    // Beyond >= minBeyond
}

// Reason explains an omitted percentile.
func (q quantile) Reason() string {
	if q.OK {
		return ""
	}
	return fmt.Sprintf("p%g omitted: %d of %d samples beyond it, need %d", q.P, q.Beyond, q.N, minBeyond)
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place): the smallest value with at least p% of the samples at
// or below it.
func percentile(xs []float64, p float64) quantile {
	q := quantile{P: p, N: len(xs)}
	if len(xs) == 0 {
		return q
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	q.Value = xs[rank-1]
	q.Beyond = len(xs) - rank
	q.OK = q.Beyond >= minBeyond
	return q
}

// quartiles returns the first quartile, median and third quartile of xs
// (sorted in place) by the exclusive method of Python's
// statistics.quantiles(xs, n=4), the definition the run-to-run spread
// of BENCHMARK.json is judged by.  A single sample is all three.
func quartiles(xs []float64) (q1, med, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		m := (n + 1) * i
		j := min(max(m/4, 1), n-1)
		delta := m - 4*j // may leave [0, 4]: the method extrapolates at the ends
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), median(xs), cut(3)
}

// median returns the middle value of xs (sorted in place), averaging the
// two middle values of an even-length sample.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of xs (all positive), 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var l float64
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
