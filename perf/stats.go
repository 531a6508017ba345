package perf

import (
	"math"
	"sort"

	"hpcmr/internal/metrics"
)

// Stats are the robust summary statistics of one scenario's samples.
// Median and IQR are the headline numbers (outlier-resistant); min is
// the classic microbenchmark floor; mean/max round out the picture.
type Stats struct {
	MedianNs float64 `json:"median_ns"`
	P25Ns    float64 `json:"p25_ns"`
	P75Ns    float64 `json:"p75_ns"`
	IQRNs    float64 `json:"iqr_ns"`
	MinNs    float64 `json:"min_ns"`
	MaxNs    float64 `json:"max_ns"`
	MeanNs   float64 `json:"mean_ns"`
}

// Summarize computes Stats over samples (nanoseconds).
func Summarize(samples []float64) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	p25 := metrics.Quantile(s, 0.25)
	p75 := metrics.Quantile(s, 0.75)
	return Stats{
		MedianNs: metrics.Quantile(s, 0.5),
		P25Ns:    p25,
		P75Ns:    p75,
		IQRNs:    p75 - p25,
		MinNs:    s[0],
		MaxNs:    s[len(s)-1],
		MeanNs:   sum / float64(len(s)),
	}
}

// median returns the median of unsorted samples (0 when empty).
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return metrics.Quantile(s, 0.5)
}

// MannWhitneyU returns the two-sided p-value of the Mann-Whitney U
// test (Wilcoxon rank-sum) between samples a and b, using the normal
// approximation with midranks, tie correction, and a continuity
// correction. With the small repetition counts perf runs use (5-15)
// the approximation is conservative enough for gating: two fully
// separated 5-sample groups give p ≈ 0.012.
//
// Degenerate inputs (an empty side, or all N samples identical) return
// p = 1: no evidence of a shift.
func MannWhitneyU(a, b []float64) float64 {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 1
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Midranks and the tie-correction term sum(t^3 - t) over tie groups.
	n := n1 + n2
	ranks := make([]float64, n)
	tieTerm := 0.0
	for i := 0; i < n; {
		j := i
		for j < n && all[j].v == all[i].v {
			j++
		}
		t := float64(j - i)
		mid := (float64(i+1) + float64(j)) / 2
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		tieTerm += t*t*t - t
		i = j
	}

	r1 := 0.0
	for i, o := range all {
		if o.fromA {
			r1 += ranks[i]
		}
	}
	u1 := r1 - float64(n1)*float64(n1+1)/2
	u2 := float64(n1)*float64(n2) - u1
	u := math.Min(u1, u2)

	mu := float64(n1) * float64(n2) / 2
	fn := float64(n)
	variance := float64(n1) * float64(n2) / 12 * ((fn + 1) - tieTerm/(fn*(fn-1)))
	if variance <= 0 {
		return 1 // every sample tied
	}
	// Continuity correction: U is discrete; shift half a step toward mu.
	z := (u + 0.5 - mu) / math.Sqrt(variance)
	if z > 0 {
		z = 0
	}
	p := 2 * 0.5 * math.Erfc(-z/math.Sqrt2)
	return math.Min(1, p)
}
