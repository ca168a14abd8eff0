package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a percentile before
// the benchmark reports it as a bounded metric (choosing-metrics §1).
const tailSamples = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice, 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supported reports whether n samples leave at least tailSamples beyond
// the p-quantile.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= tailSamples
}

// median returns the median of xs (mean of the middle two when even)
// without reordering the caller's slice.
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

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is the
// rule the acceptance driver applies to repeated runs. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank, exclusive method
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median:
// the run-to-run steadiness figure a bound is compared with.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}
