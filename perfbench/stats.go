package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// with fewer, one outlier moves it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0.5 <= q <= 1)
// and how many samples lie beyond it. It fails when fewer than
// minBeyond samples lie beyond, so a pass too short for its p90 is an
// error, not a noisy number.
func percentile(xs []float64, q float64) (float64, int, error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	return s[rank-1], beyond, nil
}

// median is the middle sample (mean of the two middle ones for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, the rule run-to-run spread is judged by.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
