package trace

import "testing"

// BenchmarkTaskSpanDisabled measures the disabled (nil tracer) hot
// path — the cost every task pays when tracing is off. Must stay at
// 0 allocs/op; CI's overhead gate builds on this.
func BenchmarkTaskSpanDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.TaskSpan("map/0", i, 0, 3, 1.0, 0.01, 64e6, "")
	}
}

func BenchmarkTaskSpanEnabled(b *testing.B) {
	now := 0.0
	tr := New(func() float64 { return now })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TaskSpan("map/0", i, 0, i&7, 1.0, 0.01, 64e6, "")
	}
}

func BenchmarkEmitParallel(b *testing.B) {
	tr := New(func() float64 { return 0 })
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		node := 0
		for pb.Next() {
			node++
			tr.FetchSpan("shuffle/0", 1, node&15, (node+1)&15, 1.0, 0.01, 1e6, 1024)
		}
	})
}
