package sched

import (
	"fmt"
	"sort"
)

// CAD is the paper's Congestion-Aware Dispatching (Section VI-B): a
// feedback control loop wrapped around an inner placement policy. It
// speculates on storage-device congestion by watching the execution
// times of completed tasks (ShuffleMapTasks in the paper) and throttles
// task dispatch when congestion is detected, giving outstanding device
// operations time to complete and small writes a chance to coalesce.
//
// Detection follows the paper: the recent moving average of task
// durations is compared against the stage's typical regime (the running
// median — robust against the fast early completions of Fig 8(d)). A
// jump to jumpFactor times the median signals congestion; a fall back
// to dropFactor of that threshold signals relief, a hysteresis band
// that keeps the throttle engaged while the device remains congested.
//
// Actuation adapts the paper's fixed 50 ms dispatch-delay quantum to
// the regime where task times vary by two orders of magnitude: instead
// of pacing launches on the wall clock (which either under-throttles or
// idles the device, depending on where task durations sit), CAD bounds
// the number of in-flight throttled-stage tasks per node — halving the
// bound on each congestion signal and raising it by one on each relief
// signal, at most once per window completions. The device is therefore
// throttled but never idled, and the bound converges onto the writer
// count where aggregate device throughput recovers. DESIGN.md records
// this substitution.
type CAD struct {
	// inner chooses task placement; CAD only limits concurrency.
	inner Policy
	// Audit, when set, receives a "throttle"/"relieve" event every time
	// the in-flight bound changes.
	Audit AuditFunc

	// jumpFactor is the average-duration growth over the running median
	// that signals congestion (paper: 2x).
	jumpFactor float64
	// dropFactor is the fraction of the congested peak at which
	// throttling relaxes (paper: 0.5).
	dropFactor float64
	// window is the moving-average width and the adjustment cooldown in
	// completions.
	window int
	// minSamples is the minimum completions before the controller acts.
	minSamples int

	limit       int // 0 = unlimited
	inflight    map[int]int
	maxInflight int
	recent      []float64
	all         []float64
	median      float64
	peak        float64
	cooldown    int
	adjustments int
}

// NewCAD wraps inner with the paper's detection parameters: 2x jump,
// 0.5 drop.
func NewCAD(inner Policy) *CAD {
	return &CAD{inner: inner, jumpFactor: 2, dropFactor: 0.5, window: 16, minSamples: 16}
}

// StageStart implements Policy. Throttle state resets per stage: the
// congestion signal of one storing phase does not carry to the next.
func (p *CAD) StageStart(tasks []TaskInfo, now float64) {
	p.inner.StageStart(tasks, now)
	p.limit = 0
	p.inflight = make(map[int]int)
	p.maxInflight = 0
	p.recent = p.recent[:0]
	p.all = p.all[:0]
	p.median = 0
	p.peak = 0
	p.cooldown = 0
	p.adjustments = 0
}

// Offer implements Policy: enforce the per-node in-flight bound, then
// delegate placement to the inner policy.
func (p *CAD) Offer(node int, now float64) Decision {
	if p.inflight == nil {
		p.inflight = make(map[int]int)
	}
	if p.limit > 0 && p.inflight[node] >= p.limit {
		// Re-offered on the next completion.
		return Decline(0)
	}
	d := p.inner.Offer(node, now)
	if d.TaskID < 0 {
		return d
	}
	p.inflight[node]++
	if p.inflight[node] > p.maxInflight {
		p.maxInflight = p.inflight[node]
	}
	return d
}

// refreshMedian recomputes the running median periodically.
func (p *CAD) refreshMedian() {
	if len(p.all)%16 != 0 && p.median != 0 {
		return
	}
	s := append([]float64(nil), p.all...)
	sort.Float64s(s)
	p.median = s[len(s)/2]
}

// Completed implements Policy: update duration statistics and adjust
// the in-flight bound.
func (p *CAD) Completed(task, node int, now float64, stats TaskStats) {
	p.inner.Completed(task, node, now, stats)
	if p.inflight[node] > 0 {
		p.inflight[node]--
	}

	p.all = append(p.all, stats.Duration)
	p.recent = append(p.recent, stats.Duration)
	if len(p.recent) > p.window {
		p.recent = p.recent[len(p.recent)-p.window:]
	}
	if len(p.all) < p.minSamples {
		return
	}
	p.refreshMedian()
	avg := 0.0
	for _, d := range p.recent {
		avg += d
	}
	avg /= float64(len(p.recent))
	if avg > p.peak {
		p.peak = avg
	}
	if p.cooldown > 0 {
		p.cooldown--
		return
	}

	switch {
	case p.limit > 0 && avg <= p.median*p.jumpFactor*p.dropFactor:
		// Congestion relieved: admit one more writer per node; fully
		// lift the bound once it exceeds the most concurrency ever
		// used.
		prev := p.limit
		p.limit++
		if p.limit > p.maxInflight {
			p.limit = 0
		}
		p.adjustments++
		p.cooldown = p.window
		p.audit("relieve", node, prev, avg, now)
	case p.median > 0 && avg >= p.median*p.jumpFactor:
		// Task times far above the typical regime: halve the per-node
		// writer bound.
		prev := p.limit
		if p.limit == 0 {
			p.limit = p.maxInflight
		}
		p.limit /= 2
		if p.limit < 1 {
			p.limit = 1
		}
		p.adjustments++
		p.cooldown = p.window
		p.audit("throttle", node, prev, avg, now)
	}
}

// audit reports one in-flight-bound adjustment.
func (p *CAD) audit(kind string, node, prev int, avg, now float64) {
	if p.Audit == nil {
		return
	}
	p.Audit(AuditEvent{
		Policy: "cad",
		Kind:   kind,
		Node:   node,
		Value:  float64(p.limit),
		Detail: fmt.Sprintf("limit %d->%d avg=%.4g median=%.4g t=%.3f",
			prev, p.limit, avg, p.median, now),
	})
}

// Pending implements Policy.
func (p *CAD) Pending() int { return p.inner.Pending() }

// Limit returns the current per-node in-flight bound (0 = unlimited).
func (p *CAD) Limit() int { return p.limit }

// Adjustments returns how many times the bound changed.
func (p *CAD) Adjustments() int { return p.adjustments }
