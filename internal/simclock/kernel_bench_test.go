package simclock

import (
	"math/rand"
	"testing"
)

// BenchmarkKernelChurn is the acceptance benchmark for the incremental
// kernel: >=4,000 concurrent flows across >=200 resources under high
// start/finish/capacity churn. The /brute sub-benchmark runs the same
// scenario on the recompute-the-world oracle; the incremental kernel must
// beat it by >=3x (CI measures the pair as mrperf's kernel/churn-*
// scenarios and gates the ratio with `cigate kernel`).
func BenchmarkKernelChurn(b *testing.B) {
	for _, k := range []struct {
		name  string
		brute bool
	}{
		{"incremental", false},
		{"brute", true},
	} {
		b.Run(k.name, func(b *testing.B) {
			var peak int
			for i := 0; i < b.N; i++ {
				_, peak = RunKernelChurn(k.brute, KernelChurnScale)
			}
			if peak < 4000 {
				b.Fatalf("peak concurrency %d, want >= 4000 (scenario under-scaled)", peak)
			}
		})
	}
}

// BenchmarkKernelFanIn stresses the single-bottleneck shape: thousands of
// flows sharing one resource, where every start/finish legitimately
// re-rates every flow. The incremental kernel's bulk-heapify path keeps
// this at parity with the oracle's linear rescan.
func BenchmarkKernelFanIn(b *testing.B) {
	const n = 4000
	for _, k := range []struct {
		name string
		mk   func(*Sim, int, float64) kernelOps
	}{
		{"incremental", incrementalOps},
		{"brute", bruteOps},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := New()
				ops := k.mk(s, 1, 1e9)
				done := 0
				for j := 0; j < n; j++ {
					at := float64(j) * 0.001
					size := 1e6 + float64(j)
					s.At(at, func() { ops.start(size, func() { done++ }, 0) })
				}
				s.Run()
				if done != n {
					b.Fatalf("completed %d/%d", done, n)
				}
			}
		})
	}
}

// BenchmarkKernelSparse models many independent resources with little
// sharing — the shape where incremental rebalancing approaches O(1)
// per event.
func BenchmarkKernelSparse(b *testing.B) {
	const nRes = 1000
	const nFlows = 10000
	for _, k := range []struct {
		name string
		mk   func(*Sim, int, float64) kernelOps
	}{
		{"incremental", incrementalOps},
		{"brute", bruteOps},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := New()
				ops := k.mk(s, nRes, 1e9)
				rng := rand.New(rand.NewSource(7))
				done := 0
				for j := 0; j < nFlows; j++ {
					at := rng.Float64() * 20
					size := 1e8 + rng.Float64()*1e9
					r := rng.Intn(nRes)
					s.At(at, func() { ops.start(size, func() { done++ }, r) })
				}
				s.Run()
				if done != nFlows {
					b.Fatalf("completed %d/%d", done, nFlows)
				}
			}
		})
	}
}

// TestKernelChurnScenarioAgrees cross-checks the benchmark scenario
// itself: both kernels complete the same number of flows and reach the
// acceptance concurrency.
func TestKernelChurnScenarioAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("full churn scenario in -short")
	}
	scale := KernelChurnScale
	ci, pi := RunKernelChurn(false, scale)
	cb, pb := RunKernelChurn(true, scale)
	if ci != cb {
		t.Fatalf("incremental completed %d flows, oracle %d", ci, cb)
	}
	if pi < 4000 || pb < 4000 {
		t.Fatalf("peak concurrency %d/%d, want >= 4000", pi, pb)
	}
}
