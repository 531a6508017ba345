// Package sched implements the task-scheduling policies the paper
// studies and contributes, as pure logic shared by the cluster simulator
// and the real execution engine:
//
//   - FIFO: the compute-centric baseline; tasks launch immediately on any
//     free slot (every node is equidistant from storage).
//   - LocalityPreferring: prefers tasks whose input is local to the
//     offering node but never waits for locality.
//   - Delay scheduling (Zaharia et al., EuroSys'10), as adopted by Spark:
//     declines non-local launches until the job has waited past a
//     locality-wait threshold. The paper shows this is useless-to-harmful
//     on HPC systems (Figs 5(b), 9).
//   - ELB (Enhanced Load Balancer, Section VI-A): tracks the intermediate
//     data volume each node has accumulated; nodes above the cluster
//     average by a threshold (25%) stop receiving tasks until the average
//     catches up, with pending tasks steered to the least-loaded nodes.
//   - CAD (Congestion-Aware Dispatching, Section VI-B): a feedback
//     throttle on task dispatch. When the mean completed-task time jumps
//     by 2x, the per-node in-flight bound halves; when it drops by half,
//     the bound grows by one.
//
// The runtime contract: StageStart once per stage, Offer whenever a node
// has a free slot, Completed when an attempt succeeds or fails. Offer
// assigns a task or declines with an optional retry hint. No runtime
// calls a policy itself: the simulator and the engine both drive one
// Stage, the dispatcher that decides which slot is offered next —
// declines stick for the rest of a sweep, a retry hint's tick re-offers
// every node, and stranded tasks forced past the policy get a full pass
// — so both place tasks alike.
package sched

import "fmt"

// TaskInfo describes one schedulable task of a stage.
type TaskInfo struct {
	// ID is the task index, unique within the stage.
	ID int
	// PreferredNodes lists nodes holding the task's input (locality
	// preference); nil means the task has no preference.
	PreferredNodes []int
}

// TaskStats reports a completed task to the policy.
type TaskStats struct {
	// Duration is the task execution time in seconds.
	Duration float64
	// IntermediateBytes is the intermediate data volume the task
	// deposited on its node.
	IntermediateBytes float64
}

// Decision is a policy's answer to a slot offer.
type Decision struct {
	// TaskID is the task to launch, or -1 to decline.
	TaskID int
	// Retry, when declining, asks the runtime to re-offer this slot
	// after the given time even if no completion occurs; zero means
	// re-offer only on the next completion event.
	Retry float64
	// Local reports whether the launch satisfies the task's locality
	// preference (meaningful only when TaskID >= 0).
	Local bool
}

// Decline is the canonical refusal decision.
func Decline(retry float64) Decision { return Decision{TaskID: -1, Retry: retry} }

// Policy is a pluggable task-placement strategy.
type Policy interface {
	// StageStart resets the policy with a new stage's task set.
	StageStart(tasks []TaskInfo, now float64)
	// Offer asks for a task to run on a free slot of node.
	Offer(node int, now float64) Decision
	// Completed reports a finished task.
	Completed(task, node int, now float64, stats TaskStats)
	// Pending returns the number of unassigned tasks.
	Pending() int
}

// taskQueue holds unassigned tasks in ID order with locality indexing.
type taskQueue struct {
	pending map[int]TaskInfo
	order   []int // task IDs in FIFO order; lazily compacted
	byNode  map[int][]int
	noPref  []int // tasks without locality preferences
}

func newTaskQueue(tasks []TaskInfo) *taskQueue {
	q := &taskQueue{
		pending: make(map[int]TaskInfo, len(tasks)),
		byNode:  make(map[int][]int),
	}
	for _, t := range tasks {
		q.pending[t.ID] = t
		q.order = append(q.order, t.ID)
		if len(t.PreferredNodes) == 0 {
			q.noPref = append(q.noPref, t.ID)
		}
		for _, n := range t.PreferredNodes {
			q.byNode[n] = append(q.byNode[n], t.ID)
		}
	}
	return q
}

func (q *taskQueue) len() int { return len(q.pending) }

// pop removes and returns the first task of ids still pending, or
// ok=false; it drops the entries it passes.
func (q *taskQueue) pop(ids *[]int) (TaskInfo, bool) {
	for len(*ids) > 0 {
		id := (*ids)[0]
		*ids = (*ids)[1:]
		if t, ok := q.pending[id]; ok {
			delete(q.pending, id)
			return t, true
		}
	}
	return TaskInfo{}, false
}

// popNoPref removes and returns the oldest preference-free pending task.
func (q *taskQueue) popNoPref() (TaskInfo, bool) { return q.pop(&q.noPref) }

// popAny removes and returns the oldest pending task.
func (q *taskQueue) popAny() (TaskInfo, bool) { return q.pop(&q.order) }

// popLocal removes and returns the oldest pending task preferring node.
func (q *taskQueue) popLocal(node int) (TaskInfo, bool) {
	ids := q.byNode[node]
	t, ok := q.pop(&ids)
	q.byNode[node] = ids
	return t, ok
}

// queueBase is the pending-task queue of a placement policy, with the
// Policy methods the policies share: a fresh queue per stage, nothing
// to learn from completions, and Pending.
type queueBase struct {
	q *taskQueue
}

// StageStart implements Policy.
func (b *queueBase) StageStart(tasks []TaskInfo, now float64) { b.q = newTaskQueue(tasks) }

// Completed implements Policy.
func (b *queueBase) Completed(task, node int, now float64, stats TaskStats) {}

// Pending implements Policy.
func (b *queueBase) Pending() int {
	if b.q == nil {
		return 0
	}
	return b.q.len()
}

func isLocal(t TaskInfo, node int) bool {
	for _, n := range t.PreferredNodes {
		if n == node {
			return true
		}
	}
	return len(t.PreferredNodes) == 0
}

// FIFO launches tasks in ID order on any offering slot.
type FIFO struct {
	queueBase
}

// NewFIFO returns the compute-centric baseline policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Offer implements Policy.
func (p *FIFO) Offer(node int, now float64) Decision {
	if p.q == nil {
		return Decline(0)
	}
	t, ok := p.q.popAny()
	if !ok {
		return Decline(0)
	}
	return Decision{TaskID: t.ID, Local: isLocal(t, node)}
}

// OfferLocal implements LocalOfferer. FIFO takes no notice of
// preferences, so a window slot takes only the oldest preference-free
// task: a stage whose tasks prefer owners keeps FIFO's placement, and
// the window cannot lend the locality-off baseline the locality the
// shuffle-locality policy is measured against.
func (p *FIFO) OfferLocal(node int, now float64) Decision {
	if p.q == nil {
		return Decline(0)
	}
	t, ok := p.q.popNoPref()
	if !ok {
		return Decline(0)
	}
	return Decision{TaskID: t.ID, Local: true}
}

// LocalityPreferring launches a node-local task when one is pending and
// otherwise immediately launches any task — locality as a preference,
// never a wait.
type LocalityPreferring struct {
	queueBase
}

// NewLocalityPreferring returns the no-wait locality policy.
func NewLocalityPreferring() *LocalityPreferring { return &LocalityPreferring{} }

// Offer implements Policy.
func (p *LocalityPreferring) Offer(node int, now float64) Decision {
	if p.q == nil {
		return Decline(0)
	}
	if t, ok := p.q.popLocal(node); ok {
		return Decision{TaskID: t.ID, Local: true}
	}
	t, ok := p.q.popAny()
	if !ok {
		return Decline(0)
	}
	return Decision{TaskID: t.ID, Local: isLocal(t, node)}
}

// SparkLocalityWait is Spark's default spark.locality.wait in seconds:
// the delay-scheduling wait the paper measures (Figs 9 and 10) and
// argues against on HPC systems.
const SparkLocalityWait = 3.0

// SpeculationMultiplier is the straggler rule: once enough of a stage's
// tasks have completed, a task running longer than SpeculationMultiplier
// times the median completed duration gets a second copy (Spark's
// spark.speculation.multiplier), and trace.Analyze counts it a straggler.
const SpeculationMultiplier = 1.5

// Delay implements Spark's delay scheduling: a slot whose node holds no
// pending local task is declined until the stage has gone wait seconds
// without a *local* launch, at which point locality is given up and
// non-local tasks flow freely. A local launch restores the wait
// (Zaharia et al.'s level-reset rule).
type Delay struct {
	// wait is the locality wait in seconds (SparkLocalityWait in the
	// paper's runs).
	wait float64
	// Audit, when set, receives a "wait" event each time a slot is
	// declined while the policy holds out for locality.
	Audit AuditFunc

	queueBase
	lastLaunch float64
}

// NewDelay returns a delay-scheduling policy with the given locality
// wait.
func NewDelay(wait float64) *Delay { return &Delay{wait: wait} }

// StageStart implements Policy.
func (p *Delay) StageStart(tasks []TaskInfo, now float64) {
	p.q = newTaskQueue(tasks)
	p.lastLaunch = now
}

// Offer implements Policy.
func (p *Delay) Offer(node int, now float64) Decision {
	if p.q == nil {
		return Decline(0)
	}
	if t, ok := p.q.popLocal(node); ok {
		p.lastLaunch = now
		return Decision{TaskID: t.ID, Local: true}
	}
	// Tasks without locality preferences run at any level immediately.
	if t, ok := p.q.popNoPref(); ok {
		return Decision{TaskID: t.ID, Local: true}
	}
	if p.q.len() == 0 {
		return Decline(0)
	}
	waited := now - p.lastLaunch
	if waited < p.wait {
		p.Audit.emit(AuditEvent{
			Policy: "delay", Kind: "wait", Node: node,
			Value:  p.wait - waited,
			Detail: fmt.Sprintf("pending=%d waited=%.3f t=%.3f", p.q.len(), waited, now),
		})
		return Decline(p.wait - waited)
	}
	t, ok := p.q.popAny()
	if !ok {
		return Decline(0)
	}
	// The wait stays expired until the next local launch, so the
	// backlog drains instead of trickling one task per wait period.
	return Decision{TaskID: t.ID, Local: isLocal(t, node)}
}
