package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile for it to be
// reported as resolved: with fewer, one outlier more or less moves it.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether at least minTail samples lie strictly above its rank. xs is
// sorted in place. An empty xs yields (0, false).
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 1-based nearest rank; the epsilon absorbs q*n rounding up
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return xs[rank-1], n-rank >= minTail
}

// median is the 0.5 percentile, ignoring resolution.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// mean returns the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio divides, returning 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open [start, end) stretch of tracer time (ns).
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the union of ivs covers. ivs is
// sorted in place.
func covered(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}
