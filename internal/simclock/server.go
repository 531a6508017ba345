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
