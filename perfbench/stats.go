package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// Quantile is one reported percentile with the sample count behind it.
type Quantile struct {
	Value   float64
	Samples int
	Beyond  int // samples strictly above the nearest-rank position
}

// OK reports whether the percentile has enough samples beyond it.
func (q Quantile) OK() bool { return q.Beyond >= minBeyond }

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. xs
// is sorted in place. With no samples it is the zero Quantile, which has
// too few samples beyond it.
func percentile(xs []float64, p float64) Quantile {
	n := len(xs)
	if n == 0 {
		return Quantile{}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return Quantile{Value: xs[rank-1], Samples: n, Beyond: n - rank}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func rmse(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a)))
}
