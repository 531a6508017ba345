package sched

import "fmt"

// ELBThreshold is the paper's ELB pause threshold (Fig 13): a node 25 %
// above the cluster's average intermediate volume stops taking tasks.
const ELBThreshold = 0.25

// ELB is the paper's Enhanced Load Balancer (Section VI-A). The policy
// records the intermediate data deposited by each completed task and
// monitors the per-node average. A node whose accumulated volume exceeds
// the average by threshold stops receiving tasks; pending tasks go to
// the least-loaded nodes instead. When the average catches up, the node
// resumes. ELB deliberately trades locality for balance — Section V-A
// shows locality is worth little on HPC systems — so task locality
// preferences are ignored.
type ELB struct {
	// threshold is the fractional excess over the cluster average at
	// which a node is paused (the paper uses ELBThreshold).
	threshold float64
	// Audit, when set, receives a "pause"/"resume" event (with a
	// per-node load snapshot) every time a node's exclusion state flips.
	Audit AuditFunc

	queueBase
	nodes     int
	nodeBytes []float64
	total     float64
	paused    []bool // last audited exclusion state, per node
}

// NewELB returns an ELB policy for a cluster of the given size.
// Intermediate-data accounting persists across stages of a job: the
// imbalance created by the map phase is what the storing/shuffle stages
// must correct for.
func NewELB(nodes int, threshold float64) *ELB {
	return &ELB{threshold: threshold, nodes: nodes, nodeBytes: make([]float64, nodes)}
}

// average returns the mean intermediate volume per node.
func (p *ELB) average() float64 {
	if p.nodes == 0 {
		return 0
	}
	return p.total / float64(p.nodes)
}

// Paused reports whether node is currently excluded from assignment.
func (p *ELB) Paused(node int) bool {
	avg := p.average()
	if avg <= 0 {
		return false
	}
	return p.nodeBytes[node] > avg*(1+p.threshold)
}

// Offer implements Policy.
func (p *ELB) Offer(node int, now float64) Decision {
	if p.q == nil || p.q.len() == 0 {
		return Decline(0)
	}
	if p.Paused(node) {
		// Re-offer on the next completion (accounting changes then).
		return Decline(0)
	}
	t, ok := p.q.popAny()
	if !ok {
		return Decline(0)
	}
	return Decision{TaskID: t.ID, Local: isLocal(t, node)}
}

// Completed implements Policy: accumulate the intermediate data the task
// deposited on its node.
func (p *ELB) Completed(task, node int, now float64, stats TaskStats) {
	if node >= 0 && node < p.nodes {
		p.nodeBytes[node] += stats.IntermediateBytes
		p.total += stats.IntermediateBytes
	}
	p.auditTransitions(now)
}

// auditTransitions reports every node whose exclusion state flipped
// since the last completion. Accounting only changes in Completed, so
// checking here observes every transition exactly once.
func (p *ELB) auditTransitions(now float64) {
	if p.Audit == nil {
		return
	}
	if p.paused == nil {
		p.paused = make([]bool, p.nodes)
	}
	avg := p.average()
	for n := 0; n < p.nodes; n++ {
		cur := p.Paused(n)
		if cur == p.paused[n] {
			continue
		}
		p.paused[n] = cur
		kind := "resume"
		if cur {
			kind = "pause"
		}
		p.Audit.emit(AuditEvent{
			Policy: "elb",
			Kind:   kind,
			Node:   n,
			Value:  p.nodeBytes[n],
			Loads:  append([]float64(nil), p.nodeBytes...),
			Detail: fmt.Sprintf("load=%.4g avg=%.4g threshold=%.2f t=%.3f",
				p.nodeBytes[n], avg, p.threshold, now),
		})
	}
}
