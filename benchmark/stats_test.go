package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRankAndSampleCounts(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{{50, 50, 50}, {95, 95, 5}, {99, 99, 1}, {100, 100, 0}, {0.5, 1, 99}} {
		got, beyond := percentile(samples, tc.p)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("percentile(p=%g) = %g with %d beyond, want %g with %d", tc.p, got, beyond, tc.want, tc.beyond)
		}
	}
	if samples[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if v, beyond := percentile(nil, 95); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %g, %d", v, beyond)
	}
	// 3000 journeys leave 150 beyond p95 and 30 beyond p99: both clear
	// the ten-sample floor; 400 reconnect cycles leave only 4 beyond p99.
	if _, b := percentile(make([]float64, 3000), 99); b != 30 {
		t.Errorf("3000 samples: %d beyond p99, want 30", b)
	}
	if _, b := percentile(make([]float64, 400), 99); b != 4 {
		t.Errorf("400 samples: %d beyond p99, want 4", b)
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %g", got)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty input must read 0")
	}
}

// The driver judges spread with Python's statistics.quantiles(v, n=4);
// these are its answers for the same inputs.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{10, 1, 7, 3}); !near(q1, 1.5) || !near(q3, 9.25) {
		t.Errorf("quartiles(1,3,7,10) = %g, %g; want 1.5, 9.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{2, 4}); !near(q1, 1.5) || !near(q3, 4.5) {
		t.Errorf("quartiles(2,4) = %g, %g; want 1.5, 4.5 (extrapolated, as Python does)", q1, q3)
	}
	if got := spreadShare(ten); !near(got, 1.0) {
		t.Errorf("spreadShare(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if spreadShare([]float64{3}) != 0 || spreadShare(nil) != 0 {
		t.Error("fewer than two samples have no spread")
	}
}
