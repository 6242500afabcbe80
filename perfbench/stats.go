package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// the benchmark reports it: p90 needs 100 samples, p95 needs 200.
const minBeyond = 10

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the R-7 / numpy default). xs need not be sorted; it is
// not modified. An empty slice gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	if lo >= len(s)-1 || frac == 0 {
		return s[lo] // also keeps a +Inf neighbour (a failed op) from turning 0*Inf into NaN
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the q-quantile of xs only when at least minBeyond samples
// lie beyond it; ok is false when the run was too short to report it.
func tail(xs []float64, q float64) (v float64, ok bool) {
	if float64(len(xs))*(1-q) < minBeyond-1e-9 {
		return math.NaN(), false
	}
	return quantile(xs, q), true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
