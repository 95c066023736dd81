package main

import (
	"math"
	"sort"
	"time"
)

// interval is a closed-open span [start, end) on the run's monotonic
// timeline, measured from the tracer's origin.
type interval struct{ start, end time.Duration }

// unionLength returns the total length covered by ivs, clipped to
// [lo, hi): overlapping intervals (concurrent sites, say) count once.
func unionLength(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var curS, curE time.Duration
	open := false
	for _, iv := range clipped {
		if open && iv.start <= curE {
			curE = max(curE, iv.end)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv.start, iv.end, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.end - parent.start - unionLength(children, parent.start, parent.end)
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs:
// the smallest sample with at least a q share of samples at or below it.
// It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), q)-1]
}

// nearestRank is the 1-based rank of the q-quantile among n samples.
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder holds the percentiles a tail is chosen from, lowest first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile picks the highest percentile on tailLadder with at least
// minBeyond of n samples ranked above it. With fewer than 2*minBeyond
// samples no percentile qualifies and the median (50) is returned, so the
// tail then reads the same as the median instead of reporting noise.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n-nearestRank(n, p/100) >= minBeyond {
			best = p
		}
	}
	return best
}
