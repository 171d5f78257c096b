package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// and the number of samples beyond it. A percentile is only worth
// reporting when at least ten samples lie beyond it; callers print the
// counts next to the value so a reader can judge.
func percentile(samples []float64, p float64) (value float64, beyond int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := rankOf(n, p)
	return sorted[rank-1], n - rank
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples (n >= 1).
func rankOf(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// quartiles returns Q1 and Q3 by the exclusive method, the one Python's
// statistics.quantiles(values, n=4) uses and the driver applies to the
// ten-seed spread. Fewer than two samples have no spread.
func quartiles(samples []float64) (q1, q3 float64) {
	n := len(samples)
	if n < 2 {
		if n == 1 {
			return samples[0], samples[0]
		}
		return 0, 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(3)
}

// spreadShare is the interquartile range as a share of the median: the
// run-to-run spread the bounds are judged against.
func spreadShare(samples []float64) float64 {
	m := median(samples)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(samples)
	return math.Abs((q3 - q1) / m)
}
