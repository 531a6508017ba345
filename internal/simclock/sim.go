// Package simclock provides a discrete-event simulation kernel: a virtual
// clock with an event heap, processor-sharing fluid resources for modeling
// bandwidth contention, FIFO servers for modeling serialized services such
// as metadata servers, and counting slots for modeling CPU cores.
//
// All times are float64 seconds of virtual time. The kernel is
// single-threaded and deterministic: events scheduled for the same instant
// fire in scheduling order.
package simclock

// Event is a scheduled callback. The handle returned by At/After can
// cancel the event before it fires; canceled events are removed from the
// heap immediately, so heavy reschedule-and-cancel users (the fluid
// system's completion timer) do not grow the pending set.
type Event struct {
	sim   *Sim
	at    float64
	seq   int64
	fn    func()
	index int // heap position; -1 once fired, canceled, or unscheduled
}

// Cancel removes the event from the schedule so its callback never runs.
// It reports whether the event was still pending; canceling a fired or
// already-canceled event is a no-op.
func (e *Event) Cancel() bool {
	if e == nil || e.index < 0 {
		return false
	}
	e.sim.events.remove(e.index)
	e.fn = nil
	return true
}

// eventHeap is an indexed binary min-heap ordered by (at, seq). Index
// tracking makes removal of an arbitrary event O(log n).
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) push(e *Event) {
	e.index = len(*h)
	*h = append(*h, e)
	h.up(e.index)
}

func (h *eventHeap) pop() *Event {
	e := (*h)[0]
	h.remove(0)
	return e
}

func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	old[i].index = -1
	if i != n {
		old[i] = old[n]
		old[i].index = i
	}
	old[n] = nil
	*h = old[:n]
	if i < n {
		if !h.down(i) {
			h.up(i)
		}
	}
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts i toward the leaves and reports whether it moved.
func (h eventHeap) down(i int) bool {
	start := i
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h.swap(i, least)
		i = least
	}
	return i > start
}

// Sim is a discrete-event simulator instance.
type Sim struct {
	now    float64
	seq    int64
	events eventHeap
	steps  int64
}

// New returns a simulator with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Steps returns the number of events executed so far.
func (s *Sim) Steps() int64 { return s.steps }

// At schedules fn to run at absolute virtual time t and returns a handle
// that can cancel it. Scheduling in the past clamps to the present.
func (s *Sim) At(t float64, fn func()) *Event {
	if t < s.now {
		t = s.now
	}
	s.seq++
	e := &Event{sim: s, at: t, seq: s.seq, fn: fn}
	s.events.push(e)
	return e
}

// After schedules fn to run d seconds from now and returns a handle that
// can cancel it. Negative delays clamp to zero.
func (s *Sim) After(d float64, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Step executes the next pending event. It reports whether an event ran.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := s.events.pop()
	s.now = e.at
	s.steps++
	e.fn()
	return true
}

// Run executes events until none remain.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t if it has not passed it already.
func (s *Sim) RunUntil(t float64) {
	for len(s.events) > 0 && s.events[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.events) }
