package sched

// Pinned dispatches tasks only on their preferred node — the discipline
// of storing-phase ShuffleMapTasks, which flush in-memory output that
// lives on a specific node and therefore cannot move. Wrap it with CAD
// to throttle the dispatch of exactly these tasks, as Section VI-B does.
type Pinned struct {
	queueBase
}

// NewPinned returns a pinned-task dispatcher.
func NewPinned() *Pinned { return &Pinned{} }

// Offer implements Policy.
func (p *Pinned) Offer(node int, now float64) Decision {
	if p.q == nil {
		return Decline(0)
	}
	if t, ok := p.q.popLocal(node); ok {
		return Decision{TaskID: t.ID, Local: true}
	}
	// Preference-free tasks may run anywhere.
	if t, ok := p.q.popNoPref(); ok {
		return Decision{TaskID: t.ID, Local: true}
	}
	return Decline(0)
}
