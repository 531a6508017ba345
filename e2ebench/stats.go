package main

import "sort"

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentile is the percentile job_tail_s reports. It is fixed, so
// that a slower build, which completes fewer jobs in the same seconds,
// is not flattered by a lower percentile; workloads are sized to finish
// 40+ jobs a run, which leaves p75 the ten samples beyond it that the
// choosing-metrics rule asks for. Reports state the count.
const tailPercentile = 75.0
