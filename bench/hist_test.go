package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistPercentileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Log-uniform over the recorder's whole accurate range, 1 µs – 10 s.
	vals := make([]float64, 200000)
	var h hist
	for i := range vals {
		ns := math.Exp(math.Log(1e3) + rng.Float64()*(math.Log(1e10)-math.Log(1e3)))
		vals[i] = math.Floor(ns)
		h.Record(time.Duration(vals[i]))
	}
	sort.Float64s(vals)
	for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 99.99, 100} {
		rank := int(math.Ceil(p/100*float64(len(vals)))) - 1
		want, got := vals[rank], h.Percentile(p)
		if err := math.Abs(got-want) / want; err > 0.01 {
			t.Errorf("p%v = %.0f ns, exact %.0f ns: error %.2f%% above 1%%", p, got, want, err*100)
		}
	}
	if h.Count() != uint64(len(vals)) {
		t.Errorf("count %d, want %d", h.Count(), len(vals))
	}
}

func TestHistClampsAndMerges(t *testing.T) {
	var a, b hist
	a.Record(-time.Second)     // negative: bucket 0
	a.Record(3)                // below the floor: bucket 0
	b.Record(time.Hour)        // above the ceiling: last value
	b.Record(time.Millisecond) // ordinary
	a.Merge(&b)
	if a.Count() != 4 {
		t.Fatalf("merged count %d, want 4", a.Count())
	}
	if got := a.Percentile(100); math.Abs(got-histMaxNS)/histMaxNS > 0.01 {
		t.Errorf("max %.0f ns, want the 10 s ceiling", got)
	}
	if got := a.Above(500 * time.Microsecond); got != 2 {
		t.Errorf("Above(500µs) = %d, want 2", got)
	}
}

func TestPMaxNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		var h hist
		for i := 0; i < tc.n; i++ {
			h.Record(time.Duration(i+1) * time.Microsecond)
		}
		if p, _ := h.PMax(); p != tc.want {
			t.Errorf("n=%d: PMax percentile %v, want %v", tc.n, p, tc.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}
