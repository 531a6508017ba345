package trace

import (
	"runtime"
	"sync"
	"testing"
)

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(Event{})
	tr.TaskSpan("s", 0, 0, 0, 0, 1, 0, "")
	tr.FetchSpan("s", 0, 1, 2, 0, 1, 10, 3)
	tr.StageSpan("s", 4, 0, 1)
	tr.JobSpan("j", 0, 1)
	tr.InstantEvent(CatSched, "elb:pause", 0, 1, "")
	if tr.Len() != 0 || tr.Drops() != 0 || tr.Events() != nil || tr.Now() != 0 {
		t.Fatal("nil tracer retained state")
	}
}

// TestDisabledZeroAlloc pins the acceptance criterion: with tracing
// disabled (nil tracer), the capture calls on the task hot path
// allocate nothing. The enabled path is allocation-free too once its
// ring has room — events are copied by value, and a ring's growth by
// append amortizes to nothing per emit.
func TestDisabledZeroAlloc(t *testing.T) {
	var disabled *Tracer
	if n := testing.AllocsPerRun(200, func() {
		disabled.TaskSpan("stage", 3, 0, 2, 1.0, 0.5, 4096, "")
		disabled.FetchSpan("stage", 3, 1, 2, 1.0, 0.5, 4096, 0)
	}); n != 0 {
		t.Fatalf("disabled tracer allocates %v per op on the hot path", n)
	}
	enabled := New(func() float64 { return 0 })
	for i := 0; i < 200; i++ {
		enabled.TaskSpan("stage", 3, 0, 2, 1.0, 0.5, 4096, "")
	}
	if n := testing.AllocsPerRun(200, func() {
		enabled.TaskSpan("stage", 3, 0, 2, 1.0, 0.5, 4096, "")
	}); n != 0 {
		t.Fatalf("enabled tracer allocates %v per emit", n)
	}
}

func TestVirtualClock(t *testing.T) {
	now := 0.0
	tr := New(func() float64 { return now })
	now = 42.5
	if got := tr.Now(); got != 42.5 {
		t.Fatalf("Now() = %v", got)
	}
	tr.InstantEvent(CatSched, "cad:throttle", 1, 8, "limit 16->8")
	ev := tr.Events()
	if len(ev) != 1 || ev[0].TS != 42.5 || ev[0].Kind != Instant {
		t.Fatalf("events = %+v", ev)
	}
}

// TestFreshTracerAllocatesWhatItRecords: a tracer's rings grow with
// what it records, so one event costs kilobytes, not the 8 × 32 768
// slots (31.5 MB) a full tracer holds.
func TestFreshTracerAllocatesWhatItRecords(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := New(func() float64 { return 0 })
	tr.TaskSpan("stage", 3, 0, 2, 1.0, 0.5, 4096, "")
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a tracer recording one event allocated %d B, want < 1 MiB", got)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestRingWraparoundCountsDrops(t *testing.T) {
	tr := New(func() float64 { return 0 })
	for i := 0; i < shardCap+6; i++ {
		tr.Emit(Event{TS: float64(i), Node: 0, Task: i})
	}
	if tr.Len() != shardCap {
		t.Fatalf("Len = %d, want %d", tr.Len(), shardCap)
	}
	if tr.Drops() != 6 {
		t.Fatalf("Drops = %d, want 6", tr.Drops())
	}
	ev := tr.Events()
	// The newest shardCap survive, oldest-first.
	for i, e := range ev {
		if e.Task != 6+i {
			t.Fatalf("retained task %d at %d, want %d", e.Task, i, 6+i)
		}
	}
}

func TestEventsMergeSortedAcrossShards(t *testing.T) {
	tr := New(func() float64 { return 0 })
	// Interleave nodes so shards fill out of global order, and wrap
	// each ring so its oldest event sits mid-buffer.
	for i := 4*shardCap + 9; i >= 0; i-- {
		tr.Emit(Event{TS: float64(i), Node: i % 4, Task: i})
	}
	ev := tr.Events()
	if len(ev) != 4*shardCap {
		t.Fatalf("%d events retained, want %d", len(ev), 4*shardCap)
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].TS < ev[i-1].TS {
			t.Fatalf("events not sorted by TS: %v after %v", ev[i].TS, ev[i-1].TS)
		}
	}
}

func TestConcurrentEmit(t *testing.T) {
	tr := New(func() float64 { return 0 })
	var wg sync.WaitGroup
	// Two workers share each of the 8 shards and overrun its cap.
	const workers, per = 16, shardCap/2 + 100
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.TaskSpan("s", i, 0, w, float64(i), 1, 1, "")
			}
		}()
	}
	wg.Wait()
	if tr.Len()+int(tr.Drops()) != workers*per {
		t.Fatalf("retained %d + dropped %d != emitted %d",
			tr.Len(), tr.Drops(), workers*per)
	}
}
