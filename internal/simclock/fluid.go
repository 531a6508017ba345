package simclock

import "math"

// workEpsilon is the residual work below which a flow counts as finished.
const workEpsilon = 1e-9

// Res is a capacity-constrained resource inside a Fluid system: a NIC, a
// storage device channel, an aggregate of object storage servers, and so
// on. Capacity is in work units per second (typically bytes/s). Active
// flows crossing a resource share its capacity equally.
type Res struct {
	fluid    *Fluid
	name     string
	capacity float64
	flows    []*Flow // active flows crossing this resource
}

// Name returns the label the resource was created with.
func (r *Res) Name() string { return r.name }

// Capacity returns the current capacity in work units per second.
func (r *Res) Capacity() float64 { return r.capacity }

// Active returns the number of flows currently crossing the resource.
func (r *Res) Active() int { return len(r.flows) }

// SetCapacity changes the resource capacity, rebalancing the flows that
// cross this resource from the current instant. Devices with
// state-dependent bandwidth (an SSD entering garbage collection, for
// example) use this. Flows elsewhere in the system are untouched.
func (r *Res) SetCapacity(c float64) {
	if c < 0 {
		c = 0
	}
	if c == r.capacity {
		return
	}
	r.capacity = c
	r.fluid.update([]*Res{r})
}

// Flow is an in-flight transfer of a fixed amount of work across one or
// more resources. Its instantaneous rate is the minimum of its equal
// shares on every resource it crosses.
//
// Progress is accounted lazily: remaining is exact as of lastUpd, and the
// true residual at any instant is remaining - rate*(now-lastUpd). A flow
// is settled (remaining brought up to now) exactly when its rate is about
// to change, so a flow whose bottleneck is quiet costs nothing per event.
type Flow struct {
	fluid     *Fluid
	remaining float64 // residual work as of lastUpd
	rate      float64
	lastUpd   float64 // virtual time remaining was last settled at
	due       float64 // predicted completion instant (+Inf when stalled)
	res       []*Res
	resIdx    []int // this flow's position in each res.flows (swap-remove)
	done      func()
	seq       int64 // start order; breaks completion ties deterministically
	heapIdx   int   // position in the fluid completion heap, -1 if absent
	mark      int64 // last update epoch that settled this flow
	finished  bool
	canceled  bool
}

// Remaining returns the work still to transfer, after accounting for
// progress up to the current instant.
func (f *Flow) Remaining() float64 {
	if f.finished || f.canceled {
		return 0
	}
	f.fluid.settle(f, f.fluid.sim.Now())
	return f.remaining
}

// Fluid is a processor-sharing fluid-flow system layered on a Sim. Flows
// progress continuously at rates determined by equal sharing of every
// resource they cross; the system schedules a wake-up at the earliest
// completion and rebalances whenever membership or capacity changes.
//
// This is the standard fluid approximation for bandwidth-shared systems:
// N concurrent transfers on a link of capacity C each progress at C/N.
//
// The kernel is incremental: a membership or capacity change settles and
// re-rates only the flows crossing the affected resources (a resource's
// share is capacity/active, so a change cannot propagate past the flows
// that touch it), predicted completions live in an indexed min-heap with
// decrease-key, and exactly one wake-up event is outstanding at any time
// (superseded wake-ups are canceled, not leaked). Completion callbacks at
// equal instants fire in start order.
type Fluid struct {
	sim     *Sim
	heap    flowHeap
	seq     int64  // flow start counter
	epoch   int64  // update generation for deduplicating settles
	wake    *Event // the single outstanding completion wake-up
	touched []*Flow
}

// NewFluid returns an empty fluid system on sim.
func NewFluid(sim *Sim) *Fluid {
	return &Fluid{sim: sim}
}

// NewRes creates a resource with the given capacity (work units/second).
func (fl *Fluid) NewRes(name string, capacity float64) *Res {
	if capacity < 0 {
		capacity = 0
	}
	return &Res{fluid: fl, name: name, capacity: capacity}
}

// Start begins a flow of size work units across the given resources and
// calls done when it completes. A zero-size flow completes on the next
// event at the current instant. Flows crossing no resources complete
// immediately as well.
func (fl *Fluid) Start(size float64, done func(), res ...*Res) *Flow {
	f := &Flow{fluid: fl, remaining: size, res: res, done: done}
	if size <= workEpsilon || len(res) == 0 {
		f.finished = true
		fl.sim.After(0, func() {
			if done != nil {
				done()
			}
		})
		return f
	}
	fl.seq++
	f.seq = fl.seq
	f.lastUpd = fl.sim.Now()
	f.heapIdx = -1
	f.resIdx = make([]int, len(res))
	for i, r := range res {
		f.resIdx[i] = len(r.flows)
		r.flows = append(r.flows, f)
	}
	fl.update(res)
	return f
}

// Cancel aborts a flow; its done callback never fires.
func (f *Flow) Cancel() {
	if f.finished || f.canceled {
		return
	}
	f.canceled = true
	fl := f.fluid
	fl.heap.remove(f)
	fl.removeFromRes(f)
	fl.update(f.res)
}

// removeFromRes unlinks f from every resource it crosses via swap-remove,
// fixing the moved flow's back-index. A flow may cross the same resource
// more than once (it then counts multiply toward the share, as in the
// original kernel), so the moved element can be another occurrence of f
// itself — the back-index fix must run unconditionally.
func (fl *Fluid) removeFromRes(f *Flow) {
	for i, r := range f.res {
		j := f.resIdx[i]
		last := len(r.flows) - 1
		moved := r.flows[last]
		r.flows[j] = moved
		r.flows[last] = nil
		r.flows = r.flows[:last]
		for k, mr := range moved.res {
			if mr == r && moved.resIdx[k] == last {
				moved.resIdx[k] = j
				break
			}
		}
	}
}

// settle applies progress at the flow's current (constant since lastUpd)
// rate up to now. Must run before any change to the flow's rate.
func (fl *Fluid) settle(f *Flow, now float64) {
	if dt := now - f.lastUpd; dt > 0 {
		f.remaining -= f.rate * dt
		if f.remaining <= workEpsilon {
			f.remaining = 0
		}
	}
	f.lastUpd = now
}

// rekey recomputes a settled flow's rate from its resources' current
// shares and its predicted completion instant, without touching the heap.
func (fl *Fluid) rekey(f *Flow, now float64) {
	rate := math.Inf(1)
	for _, r := range f.res {
		share := r.capacity / float64(len(r.flows))
		if share < rate {
			rate = share
		}
	}
	f.rate = rate
	switch {
	case f.remaining <= 0:
		f.due = now
	case rate > 0:
		f.due = now + f.remaining/rate
	default:
		f.due = math.Inf(1) // stalled until a capacity change
	}
}

// refreshAll re-rates every touched flow and restores heap order. For a
// few touched flows it repositions each in O(log n); when a rebalance
// touches most of the heap (everything bottlenecked on one resource) it
// heapifies wholesale in O(n) instead.
func (fl *Fluid) refreshAll(touched []*Flow, now float64) {
	if 4*len(touched) >= len(fl.heap)+len(touched) {
		for _, g := range touched {
			fl.rekey(g, now)
			if g.heapIdx < 0 {
				g.heapIdx = len(fl.heap)
				fl.heap = append(fl.heap, g)
			}
		}
		fl.heap.init()
		return
	}
	for _, g := range touched {
		fl.rekey(g, now)
		if g.heapIdx < 0 {
			fl.heap.push(g)
		} else {
			fl.heap.fix(g)
		}
	}
}

// update is the incremental rebalance: settle and re-rate exactly the
// flows crossing the dirty resources, complete anything that is now due,
// and move the single wake-up to the new earliest completion.
func (fl *Fluid) update(dirty []*Res) {
	now := fl.sim.Now()
	fl.epoch++
	epoch := fl.epoch
	touched := fl.touched[:0]
	for _, r := range dirty {
		for _, g := range r.flows {
			if g.mark != epoch {
				g.mark = epoch
				fl.settle(g, now)
				touched = append(touched, g)
			}
		}
	}
	fl.refreshAll(touched, now)
	fl.touched = touched[:0]
	fl.drain(now)
	fl.reschedule()
}

// drain completes every flow whose predicted completion is not in the
// future. This covers both regular wake-ups and the force-complete case
// where residual work is too small to advance the clock (due rounds to
// now). Each batch is removed and survivors re-rated before any callback
// runs, so callbacks observe a consistent system and may start new flows.
func (fl *Fluid) drain(now float64) {
	for {
		m := fl.heap.min()
		if m == nil || m.due > now {
			return
		}
		// batch is local: done callbacks may recursively start/cancel
		// flows and re-enter drain.
		var batch []*Flow
		for ; m != nil && m.due <= now; m = fl.heap.min() {
			fl.heap.remove(m)
			m.finished = true
			m.remaining = 0
			batch = append(batch, m)
		}
		for _, f := range batch {
			fl.removeFromRes(f)
		}
		fl.epoch++
		epoch := fl.epoch
		touched := fl.touched[:0]
		for _, f := range batch {
			for _, r := range f.res {
				for _, g := range r.flows {
					if g.mark != epoch {
						g.mark = epoch
						fl.settle(g, now)
						touched = append(touched, g)
					}
				}
			}
		}
		fl.refreshAll(touched, now)
		fl.touched = touched[:0]
		for _, f := range batch {
			if f.done != nil {
				f.done()
			}
		}
	}
}

// reschedule points the single outstanding wake-up at the earliest
// predicted completion, canceling the superseded one so the event heap
// holds at most one fluid timer regardless of rebalance churn.
func (fl *Fluid) reschedule() {
	if fl.wake != nil {
		fl.wake.Cancel()
		fl.wake = nil
	}
	m := fl.heap.min()
	if m == nil || math.IsInf(m.due, 1) {
		return
	}
	fl.wake = fl.sim.At(m.due, fl.onWake)
}

// onWake fires at a predicted completion instant.
func (fl *Fluid) onWake() {
	fl.wake = nil
	fl.drain(fl.sim.Now())
	fl.reschedule()
}

// ActiveFlows returns the number of in-flight flows.
func (fl *Fluid) ActiveFlows() int { return len(fl.heap) }
