package sched

// ForcedRemote launches tasks preferentially on nodes that do NOT hold
// their input — the instrument behind the paper's Fig 10, which compares
// task execution times with local versus remote data to show that
// pipelining input with computation erases the locality benefit.
type ForcedRemote struct {
	queueBase
}

// NewForcedRemote returns the anti-locality policy.
func NewForcedRemote() *ForcedRemote { return &ForcedRemote{} }

// Offer implements Policy: pick the oldest pending task not local to the
// offering node; fall back to a local task only when nothing else is
// left.
func (p *ForcedRemote) Offer(node int, now float64) Decision {
	if p.q == nil {
		return Decline(0)
	}
	for _, id := range p.q.order {
		t, ok := p.q.pending[id]
		if !ok {
			continue
		}
		if !isLocal(t, node) {
			delete(p.q.pending, id)
			return Decision{TaskID: t.ID, Local: false}
		}
	}
	t, ok := p.q.popAny()
	if !ok {
		return Decline(0)
	}
	return Decision{TaskID: t.ID, Local: isLocal(t, node)}
}
