package sched

import "fmt"

// ShuffleLocality composes no-wait shuffle locality with the ELB
// imbalance rule (the M3R-style placement the engine's shuffle scorer
// feeds): a free slot first takes a task whose preferred owner is the
// offering node — the co-located zero-copy path — then a
// preference-free task, then any task. The ELB 25% rule is traded
// against locality rather than overridden: a node paused for imbalance
// receives nothing, even its own local tasks, until the cluster
// average catches up. Locality never waits — a slot with no local work
// launches remote work immediately (Section V-A: waiting is what hurts
// on HPC systems, preferring is free).
type ShuffleLocality struct {
	*ELB
}

// LocalOfferer is implemented by policies that can fill window slots:
// the slots an executor has beyond its cores, whose attempts wait in
// its run queue behind the ones running. OfferLocal returns only a task
// preferring node or one with no preference — never one that another
// node should run, because a queued attempt holds its task until the
// executor gets to it, while the owner may free a core first — and
// declines a node the policy is holding back. A runtime offers window
// slots only after every core slot has been offered.
type LocalOfferer interface {
	OfferLocal(node int, now float64) Decision
}

// NewShuffleLocality returns the locality+ELB composite for a cluster
// of the given size, pausing nodes at ELBThreshold. Like ELB,
// intermediate-data accounting persists for the policy value's
// lifetime.
func NewShuffleLocality(nodes int) *ShuffleLocality {
	return &ShuffleLocality{ELB: NewELB(nodes, ELBThreshold)}
}

// Offer implements Policy: ELB pause first, then local > no-pref > any.
func (p *ShuffleLocality) Offer(node int, now float64) Decision {
	if p.q == nil || p.q.len() == 0 {
		return Decline(0)
	}
	if p.Paused(node) {
		// The imbalance rule wins the trade: decline even if this node
		// holds local work, and re-offer on the next completion.
		p.Audit.emit(AuditEvent{
			Policy: "locality", Kind: "elb-veto", Node: node,
			Value:  p.nodeBytes[node],
			Detail: fmt.Sprintf("load=%.4g avg=%.4g pending=%d t=%.3f", p.nodeBytes[node], p.average(), p.q.len(), now),
		})
		return Decline(0)
	}
	if d := p.offerOwn(node, now); d.TaskID >= 0 {
		return d
	}
	t, ok := p.q.popAny()
	if !ok {
		return Decline(0)
	}
	// A task with a preference launched off its preferred owner: the
	// fetch will cross executors (the network in dist).
	p.Audit.emit(AuditEvent{
		Policy: "locality", Kind: "remote", Node: node,
		Value:  float64(t.ID),
		Detail: fmt.Sprintf("task=%d preferred=%v t=%.3f", t.ID, t.PreferredNodes, now),
	})
	return Decision{TaskID: t.ID, Local: isLocal(t, node)}
}

// OfferLocal implements LocalOfferer: nothing for an ELB-paused node,
// so its window drains and is not refilled; else local > no-pref.
func (p *ShuffleLocality) OfferLocal(node int, now float64) Decision {
	if p.q == nil || p.Paused(node) {
		return Decline(0)
	}
	return p.offerOwn(node, now)
}

// offerOwn pops the oldest task preferring node, else the oldest
// preference-free one, and declines when there is neither.
func (p *ShuffleLocality) offerOwn(node int, now float64) Decision {
	if t, ok := p.q.popLocal(node); ok {
		p.Audit.emit(AuditEvent{
			Policy: "locality", Kind: "local", Node: node,
			Value:  float64(t.ID),
			Detail: fmt.Sprintf("task=%d t=%.3f", t.ID, now),
		})
		return Decision{TaskID: t.ID, Local: true}
	}
	if t, ok := p.q.popNoPref(); ok {
		return Decision{TaskID: t.ID, Local: true}
	}
	return Decline(0)
}
