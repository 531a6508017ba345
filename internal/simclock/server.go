package simclock

// Server is a FIFO single-queue service center: each submitted request
// occupies the server exclusively for its service time. It models
// serialized services such as a metadata server or a per-file lock
// manager, where queueing delay under contention is the interesting
// behaviour.
type Server struct {
	sim       *Sim
	busyUntil float64
	served    int64
	busyTime  float64
}

// NewServer returns an idle FIFO server on sim.
func NewServer(sim *Sim) *Server {
	return &Server{sim: sim}
}

// Submit enqueues a request with the given service time and calls done
// when it completes. Requests are served in submission order.
func (s *Server) Submit(serviceTime float64, done func()) {
	if serviceTime < 0 {
		serviceTime = 0
	}
	start := s.busyUntil
	if now := s.sim.Now(); start < now {
		start = now
	}
	s.busyUntil = start + serviceTime
	s.served++
	s.busyTime += serviceTime
	if done != nil {
		s.sim.At(s.busyUntil, done)
	}
}

// QueueDelay returns the waiting time a request submitted now would incur
// before service begins.
func (s *Server) QueueDelay() float64 {
	d := s.busyUntil - s.sim.Now()
	if d < 0 {
		return 0
	}
	return d
}

// Served returns the number of requests accepted so far.
func (s *Server) Served() int64 { return s.served }

// BusyTime returns the cumulative service time accepted so far.
func (s *Server) BusyTime() float64 { return s.busyTime }

// Slots is a counting semaphore over virtual time: up to N holders at
// once, FIFO granting. It models CPU core slots on a compute node.
type Slots struct {
	sim   *Sim
	total int
	inUse int
	queue []func()
}

// NewSlots returns a semaphore with n slots.
func NewSlots(sim *Sim, n int) *Slots {
	if n < 1 {
		n = 1
	}
	return &Slots{sim: sim, total: n}
}

// Acquire requests a slot; acquired runs (as a scheduled event) once one
// is available. Callers release with Release.
func (s *Slots) Acquire(acquired func()) {
	if s.inUse < s.total {
		s.inUse++
		s.sim.After(0, acquired)
		return
	}
	s.queue = append(s.queue, acquired)
}

// Release frees a slot, granting it to the oldest waiter if any.
func (s *Slots) Release() {
	if len(s.queue) > 0 {
		next := s.queue[0]
		s.queue = s.queue[1:]
		s.sim.After(0, next)
		return
	}
	if s.inUse > 0 {
		s.inUse--
	}
}

// Total returns the slot count.
func (s *Slots) Total() int { return s.total }
