package simclock

import "math"

// BruteFluid is the reference fluid-flow kernel: on every membership or
// capacity change it recomputes every flow's rate and rescans all flows
// (O(flows·resources) per event). It is the original implementation,
// kept as the oracle for differential tests and as the baseline the
// kernel microbenchmarks measure the incremental Fluid against. Do not
// use it in simulations — it is quadratic-plus under churn.
type BruteFluid struct {
	sim   *Sim
	flows []*BruteFlow
	gen   int64
	lastT float64
}

// BruteRes is a resource in a BruteFluid system.
type BruteRes struct {
	fluid    *BruteFluid
	name     string
	capacity float64
	active   int
}

// Name returns the label the resource was created with.
func (r *BruteRes) Name() string { return r.name }

// Capacity returns the current capacity in work units per second.
func (r *BruteRes) Capacity() float64 { return r.capacity }

// Active returns the number of flows currently crossing the resource.
func (r *BruteRes) Active() int { return r.active }

// SetCapacity changes the resource capacity, rebalancing all in-flight
// flows from the current instant.
func (r *BruteRes) SetCapacity(c float64) {
	if c < 0 {
		c = 0
	}
	if c == r.capacity {
		return
	}
	r.fluid.advance()
	r.capacity = c
	r.fluid.rebalance()
}

// BruteFlow is an in-flight transfer in a BruteFluid system.
type BruteFlow struct {
	fluid     *BruteFluid
	remaining float64
	rate      float64
	res       []*BruteRes
	done      func()
	finished  bool
	canceled  bool
}

// Remaining returns the work still to transfer as of the current instant.
func (f *BruteFlow) Remaining() float64 {
	if f.finished || f.canceled {
		return 0
	}
	f.fluid.advance()
	return f.remaining
}

// NewBruteFluid returns an empty reference fluid system on sim.
func NewBruteFluid(sim *Sim) *BruteFluid {
	return &BruteFluid{sim: sim, lastT: sim.Now()}
}

// NewRes creates a resource with the given capacity.
func (fl *BruteFluid) NewRes(name string, capacity float64) *BruteRes {
	if capacity < 0 {
		capacity = 0
	}
	return &BruteRes{fluid: fl, name: name, capacity: capacity}
}

// Start begins a flow of size work units across the given resources.
func (fl *BruteFluid) Start(size float64, done func(), res ...*BruteRes) *BruteFlow {
	f := &BruteFlow{fluid: fl, remaining: size, res: res, done: done}
	if size <= workEpsilon || len(res) == 0 {
		f.finished = true
		fl.sim.After(0, func() {
			if done != nil {
				done()
			}
		})
		return f
	}
	fl.advance()
	fl.flows = append(fl.flows, f)
	for _, r := range res {
		r.active++
	}
	fl.rebalance()
	return f
}

// Cancel aborts a flow; its done callback never fires.
func (f *BruteFlow) Cancel() {
	if f.finished || f.canceled {
		return
	}
	f.canceled = true
	f.fluid.advance()
	f.fluid.remove(f)
	f.fluid.rebalance()
}

func (fl *BruteFluid) remove(f *BruteFlow) {
	for i, g := range fl.flows {
		if g == f {
			fl.flows = append(fl.flows[:i], fl.flows[i+1:]...)
			break
		}
	}
	for _, r := range f.res {
		r.active--
	}
}

// advance applies progress at current rates from lastT to now and
// completes any flows that have drained.
func (fl *BruteFluid) advance() {
	now := fl.sim.Now()
	dt := now - fl.lastT
	fl.lastT = now
	if dt <= 0 || len(fl.flows) == 0 {
		return
	}
	var finished []*BruteFlow
	for _, f := range fl.flows {
		f.remaining -= f.rate * dt
		if f.remaining <= workEpsilon {
			f.remaining = 0
			finished = append(finished, f)
		}
	}
	fl.complete(finished)
}

func (fl *BruteFluid) complete(finished []*BruteFlow) {
	for _, f := range finished {
		f.finished = true
		fl.remove(f)
	}
	for _, f := range finished {
		if f.done != nil {
			f.done()
		}
	}
}

// rebalance recomputes every flow's rate and schedules the next wake-up.
func (fl *BruteFluid) rebalance() {
	for {
		fl.gen++
		gen := fl.gen
		if len(fl.flows) == 0 {
			return
		}
		next := math.Inf(1)
		for _, f := range fl.flows {
			rate := math.Inf(1)
			for _, r := range f.res {
				share := r.capacity / float64(r.active)
				if share < rate {
					rate = share
				}
			}
			f.rate = rate
			if rate > 0 {
				if t := f.remaining / rate; t < next {
					next = t
				}
			}
		}
		if math.IsInf(next, 1) {
			return // all flows stalled until a capacity change
		}
		now := fl.sim.Now()
		if now+next > now {
			fl.sim.After(next, func() {
				if fl.gen != gen {
					return // superseded by a later rebalance
				}
				fl.advance()
				fl.rebalance()
			})
			return
		}
		// The earliest completion is below clock resolution: finish those
		// flows now and recompute.
		threshold := next * (1 + 1e-9)
		var finished []*BruteFlow
		for _, f := range fl.flows {
			if f.rate > 0 && f.remaining/f.rate <= threshold {
				f.remaining = 0
				finished = append(finished, f)
			}
		}
		fl.complete(finished)
	}
}

// ActiveFlows returns the number of in-flight flows.
func (fl *BruteFluid) ActiveFlows() int { return len(fl.flows) }
