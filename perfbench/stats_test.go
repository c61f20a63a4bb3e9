package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	v, beyond, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if _, beyond, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatalf("p90 of 99 samples leaves %d beyond and must be refused", beyond)
	}
	if v, beyond, err := percentile(xs[:21], 0.5); err != nil || beyond != 10 {
		t.Fatalf("p50 of 21 samples = %v, %d beyond, %v; want 10 beyond", v, beyond, err)
	}
	if _, _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond and must be refused")
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples must fail")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1.5, 9.25, 4, 7.5, 2, 8}, [3]float64{2, 4, 8}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
