package main

import (
	"testing"
	"time"
)

func ms(a, b int) interval {
	return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := ms(0, 10)
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"none", nil, 10 * time.Millisecond},
		{"disjoint", []interval{ms(1, 2), ms(4, 6)}, 7 * time.Millisecond},
		// Concurrent children overlap: the covered part counts once.
		{"overlapping", []interval{ms(1, 3), ms(2, 5)}, 6 * time.Millisecond},
		{"nested", []interval{ms(1, 9), ms(2, 3)}, 2 * time.Millisecond},
		// Children are clipped to the parent's interval.
		{"straddling", []interval{ms(-5, 1), ms(8, 12)}, 7 * time.Millisecond},
		{"outside", []interval{ms(11, 12), ms(-3, -1)}, 10 * time.Millisecond},
		{"touching", []interval{ms(1, 3), ms(3, 5)}, 6 * time.Millisecond},
		{"covering", []interval{ms(-1, 11)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1, 50}, {6, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("n=%d: percentile %v, want %v", c.n, got, c.want)
		}
		// The rule itself: at least ten samples rank above the chosen
		// percentile whenever any percentile qualifies.
		if beyond := c.n - nearestRank(c.n, got/100); c.n >= 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, got)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.2, 1}, {0.5, 3}, {0.6, 3}, {0.61, 4}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("q=%v: %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty quantile is not 0")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v, want 2.5", m)
	}
	if m := median(xs); m != 3 {
		t.Errorf("odd median %v, want 3", m)
	}
}

func TestPassTail(t *testing.T) {
	// 100 rounds of 1..100: p90 leaves ten beyond, so the tail is 90.
	dur := make([]float64, 100)
	for i := range dur {
		dur[i] = float64(100 - i)
	}
	if got := passTail(dur); got != 90 {
		t.Errorf("100 samples: tail %v, want 90", got)
	}
	// Under 20 samples the tail falls back to the median.
	if got := passTail([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("4 samples: tail %v, want the median 2.5", got)
	}
}
