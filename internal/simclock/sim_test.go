package simclock

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.After(2, func() { got = append(got, 2) })
	s.After(1, func() { got = append(got, 1) })
	s.After(3, func() { got = append(got, 3) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v, want 3", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events out of scheduling order: %v", got)
		}
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	s := New()
	var at float64 = -1
	s.After(10, func() {
		s.At(3, func() { at = s.Now() }) // in the past; clamps to now
	})
	s.Run()
	if at != 10 {
		t.Fatalf("past event ran at %v, want 10", at)
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	s := New()
	ran := false
	s.After(-5, func() { ran = true })
	s.Run()
	if !ran || s.Now() != 0 {
		t.Fatalf("negative delay: ran=%v now=%v", ran, s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(1, recurse)
		}
	}
	s.After(0, recurse)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if s.Now() != 99 {
		t.Fatalf("Now = %v, want 99", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(float64(i), func() { count++ })
	}
	s.RunUntil(5.5)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != 5.5 {
		t.Fatalf("Now = %v, want 5.5", s.Now())
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", s.Pending())
	}
	s.Run()
	if count != 10 {
		t.Fatalf("count after Run = %d, want 10", count)
	}
}

func TestStepOnEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty simulator returned true")
	}
}

// Property: regardless of insertion order, events fire in timestamp order.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		var fired []float64
		for _, r := range raw {
			at := float64(r) / 16
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServerFIFO(t *testing.T) {
	s := New()
	srv := NewServer(s)
	var ends []float64
	srv.Submit(2, func() { ends = append(ends, s.Now()) })
	srv.Submit(3, func() { ends = append(ends, s.Now()) })
	srv.Submit(1, func() { ends = append(ends, s.Now()) })
	if d := srv.QueueDelay(); d != 6 {
		t.Fatalf("QueueDelay = %v, want 6", d)
	}
	s.Run()
	want := []float64{2, 5, 6}
	for i := range want {
		if !almostEqual(ends[i], want[i], 1e-12) {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if srv.Served() != 3 || srv.BusyTime() != 6 {
		t.Fatalf("Served=%d BusyTime=%v", srv.Served(), srv.BusyTime())
	}
}

func TestServerIdleGap(t *testing.T) {
	s := New()
	srv := NewServer(s)
	var end float64
	s.After(10, func() {
		srv.Submit(1, func() { end = s.Now() })
	})
	s.Run()
	if end != 11 {
		t.Fatalf("end = %v, want 11 (service starts when submitted on idle server)", end)
	}
}

func TestFluidSingleFlow(t *testing.T) {
	s := New()
	fl := NewFluid(s)
	r := fl.NewRes("link", 100) // 100 units/s
	var end float64
	fl.Start(500, func() { end = s.Now() }, r)
	s.Run()
	if !almostEqual(end, 5, 1e-9) {
		t.Fatalf("end = %v, want 5", end)
	}
}

func TestFluidEqualSharing(t *testing.T) {
	s := New()
	fl := NewFluid(s)
	r := fl.NewRes("link", 100)
	var ends []float64
	for i := 0; i < 2; i++ {
		fl.Start(500, func() { ends = append(ends, s.Now()) }, r)
	}
	s.Run()
	// Two equal flows sharing 100 u/s: each runs at 50, both end at 10.
	for _, e := range ends {
		if !almostEqual(e, 10, 1e-9) {
			t.Fatalf("ends = %v, want both 10", ends)
		}
	}
}

func TestFluidStaggeredFlows(t *testing.T) {
	s := New()
	fl := NewFluid(s)
	r := fl.NewRes("link", 100)
	var endA, endB float64
	fl.Start(500, func() { endA = s.Now() }, r)
	s.After(2, func() {
		fl.Start(100, func() { endB = s.Now() }, r)
	})
	s.Run()
	// A runs alone for 2 s (200 done), then shares: both at 50 u/s.
	// B finishes at 2 + 100/50 = 4. A then has 300-100=200 left at full
	// speed: 4 + 2 = 6.
	if !almostEqual(endB, 4, 1e-9) {
		t.Fatalf("endB = %v, want 4", endB)
	}
	if !almostEqual(endA, 6, 1e-9) {
		t.Fatalf("endA = %v, want 6", endA)
	}
}

func TestFluidMinOfResources(t *testing.T) {
	s := New()
	fl := NewFluid(s)
	fast := fl.NewRes("fast", 1000)
	slow := fl.NewRes("slow", 10)
	var end float64
	fl.Start(100, func() { end = s.Now() }, fast, slow)
	s.Run()
	if !almostEqual(end, 10, 1e-9) {
		t.Fatalf("end = %v, want 10 (bottlenecked by slow resource)", end)
	}
}

func TestFluidCapacityChange(t *testing.T) {
	s := New()
	fl := NewFluid(s)
	r := fl.NewRes("dev", 100)
	var end float64
	fl.Start(1000, func() { end = s.Now() }, r)
	s.After(5, func() { r.SetCapacity(50) }) // 500 done, 500 left at 50/s
	s.Run()
	if !almostEqual(end, 15, 1e-9) {
		t.Fatalf("end = %v, want 15", end)
	}
}

func TestFluidStallAndResume(t *testing.T) {
	s := New()
	fl := NewFluid(s)
	r := fl.NewRes("dev", 100)
	var end float64
	fl.Start(1000, func() { end = s.Now() }, r)
	s.After(2, func() { r.SetCapacity(0) })   // 200 done, stall
	s.After(10, func() { r.SetCapacity(80) }) // 800 left at 80/s => +10
	s.Run()
	if !almostEqual(end, 20, 1e-9) {
		t.Fatalf("end = %v, want 20", end)
	}
}

func TestFluidZeroSizeFlow(t *testing.T) {
	s := New()
	fl := NewFluid(s)
	r := fl.NewRes("dev", 100)
	done := false
	fl.Start(0, func() { done = true }, r)
	s.Run()
	if !done {
		t.Fatal("zero-size flow never completed")
	}
	if r.Active() != 0 {
		t.Fatalf("zero-size flow left resource active=%d", r.Active())
	}
}

func TestFluidCancel(t *testing.T) {
	s := New()
	fl := NewFluid(s)
	r := fl.NewRes("dev", 100)
	fired := false
	f := fl.Start(1000, func() { fired = true }, r)
	var otherEnd float64
	fl.Start(500, func() { otherEnd = s.Now() }, r)
	s.After(1, func() { f.Cancel() })
	s.Run()
	if fired {
		t.Fatal("canceled flow's done callback fired")
	}
	// Other flow: 1 s shared at 50 (50 done), then alone: 450/100 = 4.5.
	if !almostEqual(otherEnd, 5.5, 1e-9) {
		t.Fatalf("otherEnd = %v, want 5.5", otherEnd)
	}
	if fl.ActiveFlows() != 0 || r.Active() != 0 {
		t.Fatalf("leftover flows=%d active=%d", fl.ActiveFlows(), r.Active())
	}
}

func TestFluidChainedFlows(t *testing.T) {
	// done callback starting a new flow must see consistent state.
	s := New()
	fl := NewFluid(s)
	r := fl.NewRes("dev", 100)
	var end float64
	fl.Start(100, func() {
		fl.Start(100, func() { end = s.Now() }, r)
	}, r)
	s.Run()
	if !almostEqual(end, 2, 1e-9) {
		t.Fatalf("end = %v, want 2", end)
	}
}

// Property: work conservation — with a single resource and simultaneous
// flows, total completion time equals total work / capacity, and every
// flow completes.
func TestFluidWorkConservationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%8) + 1
		s := New()
		fl := NewFluid(s)
		r := fl.NewRes("link", 100)
		total := 0.0
		completed := 0
		var last float64
		for i := 0; i < k; i++ {
			size := 10 + rng.Float64()*1000
			total += size
			fl.Start(size, func() {
				completed++
				last = s.Now()
			}, r)
		}
		s.Run()
		return completed == k && almostEqual(last, total/100, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the fluid system is deterministic for a given scenario.
func TestFluidDeterminismProperty(t *testing.T) {
	run := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		fl := NewFluid(s)
		r1 := fl.NewRes("a", 50+rng.Float64()*100)
		r2 := fl.NewRes("b", 50+rng.Float64()*100)
		var ends []float64
		for i := 0; i < 20; i++ {
			size := 10 + rng.Float64()*500
			start := rng.Float64() * 5
			res := []*Res{r1}
			if i%2 == 0 {
				res = append(res, r2)
			}
			s.At(start, func() {
				fl.Start(size, func() { ends = append(ends, s.Now()) }, res...)
			})
		}
		s.Run()
		return ends
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFluidManyFlowsFinish(t *testing.T) {
	s := New()
	fl := NewFluid(s)
	r := fl.NewRes("link", 1e9)
	n := 2000
	completed := 0
	for i := 0; i < n; i++ {
		fl.Start(1e6+float64(i), func() { completed++ }, r)
	}
	s.Run()
	if completed != n {
		t.Fatalf("completed = %d, want %d", completed, n)
	}
}
