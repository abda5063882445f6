package main

import (
	"math"
	"sort"
)

// percentile reads the p-quantile (0 ≤ p ≤ 1) from an ascending slice by
// linear interpolation between the two nearest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailLevels are the percentiles a report may quote, lowest first.
var tailLevels = []float64{0.50, 0.90, 0.99, 0.999}

// highestPercentile returns the highest level of tailLevels that still
// has at least ten samples beyond it among n samples — the tail a sample
// of that size supports. With fewer than twenty samples only the median
// is left.
func highestPercentile(n int) float64 {
	best := tailLevels[0]
	for _, p := range tailLevels {
		// 1e-9 absorbs the rounding of 1-p, so that 100 samples support p90.
		if float64(n)*(1-p)+1e-9 >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is the
// rule the acceptance procedure applies to repeated runs.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
