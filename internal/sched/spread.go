package sched

// Spread balances a stage's tasks evenly across nodes by capping each
// node at its fair share (ceiling). Spark's resource-offer rounds
// produce the same effect for reduce stages: fetch tasks land one per
// executor rather than packing the first executors' slots, which would
// funnel all shuffle traffic into a few NICs.
type Spread struct {
	queueBase
	nodes    int
	launched []int
	quota    int
}

// NewSpread returns a spreading policy for a cluster of the given size.
func NewSpread(nodes int) *Spread {
	if nodes < 1 {
		nodes = 1
	}
	return &Spread{nodes: nodes}
}

// StageStart implements Policy.
func (p *Spread) StageStart(tasks []TaskInfo, now float64) {
	p.q = newTaskQueue(tasks)
	p.launched = make([]int, p.nodes)
	p.quota = (len(tasks) + p.nodes - 1) / p.nodes
}

// Offer implements Policy.
func (p *Spread) Offer(node int, now float64) Decision {
	if p.q == nil || p.q.len() == 0 {
		return Decline(0)
	}
	if node >= 0 && node < p.nodes && p.launched[node] >= p.quota {
		return Decline(0)
	}
	t, ok := p.q.popAny()
	if !ok {
		return Decline(0)
	}
	if node >= 0 && node < p.nodes {
		p.launched[node]++
	}
	return Decision{TaskID: t.ID, Local: isLocal(t, node)}
}
