package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // reversed: percentile must sort
	}
	if v, ok := percentile(xs, 99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := percentile(xs, 50); !ok || v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, %v; want 500, true", v, ok)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	if _, ok := percentile(xs, 99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it; want refusal")
	}
	if _, ok := percentile(make([]float64, 100), 90); !ok {
		t.Fatal("p90 of 100 samples has 10 beyond it; want a value")
	}
	if _, ok := percentile(make([]float64, 99), 90); ok {
		t.Fatal("p90 of 99 samples has 9 beyond it; want refusal")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Fatal("percentile of no samples; want refusal")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 6}, 5, 5},
	}
	for _, c := range cases {
		q1, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want error")
	}
}

func TestIQRShare(t *testing.T) {
	got, err := iqrShare([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := (5.25 - 1.75) / 3.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("iqrShare = %v, want %v", got, want)
	}
	if _, err := iqrShare([]float64{0, 0, 0}); err == nil {
		t.Fatal("iqrShare with zero median: want error")
	}
}

func TestChunkedPercentile(t *testing.T) {
	// 3000 samples: three chunks of 1000, the middle one with a stall.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i % 1000)
	}
	for i := 1000; i < 1100; i++ {
		xs[i] = 1e6
	}
	v, ok := chunkedPercentile(xs, 99, 1000)
	if !ok || v != 989 {
		t.Fatalf("chunkedPercentile = %v, %v; want 989 (the stalled chunk outvoted)", v, ok)
	}
	if _, ok := chunkedPercentile(xs[:999], 99, 1000); ok {
		t.Fatal("999 samples hold no chunk of 1000; want refusal")
	}
	if _, ok := chunkedPercentile(xs, 99, 500); ok {
		t.Fatal("chunks of 500 cannot support p99; want refusal")
	}
}

func TestSummarizeRuns(t *testing.T) {
	in := strings.Join([]string{
		"host {}",
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"x_ms":{"value":3,"unit":"ms"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"x_ms":{"value":1,"unit":"ms"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"x_ms":{"value":2,"unit":"ms"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"x_ms":{"value":4,"unit":"ms"}}}`,
	}, "\n")
	var out strings.Builder
	if err := summarizeRuns(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if want := "x_ms                         median=2.5000 q1=1.2500 q3=3.7500 spread=1.0000"; !strings.Contains(out.String(), want) {
		t.Fatalf("summary:\n%s\nwant a line %q", out.String(), want)
	}
	if err := summarizeRuns(strings.NewReader(in[:20]), &out); err == nil {
		t.Fatal("summary of no runs: want error")
	}
}
