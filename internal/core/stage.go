package core

import (
	"fmt"

	"hpcmr/internal/metrics"
	"hpcmr/internal/sched"
	"hpcmr/trace"
)

// taskExec runs one task's body on a node. launch is the task's start
// time (after dispatch); the body must eventually call done exactly once
// with the task's stats.
type taskExec func(id, node int, launch float64, done func(stats sched.TaskStats))

// stageRunner adapts one simulated stage to the virtual clock: a
// sched.Stage decides every launch, requeue and task-level fault, and
// the runner feeds it from simclock events and carries out what it
// decides — the centralized master's dispatch cost, injected hangs and
// failures, the task body, and the crashes a completion triggers.
// Attempts on a crashed node become zombies in the machine, their tasks
// requeued on the survivors; only the final successful run of a task
// reaches the timeline and the tracer.
type stageRunner struct {
	eng      *Engine
	name     string
	m        *sched.Stage
	exec     taskExec
	timeline *metrics.Timeline
	onDone   func()

	active bool
	local  int
	remote int
}

// runStage executes tasks under policy and calls onDone(timeline,
// localLaunches, remoteLaunches) when the last task completes. Stages
// with no tasks complete on the next event. A non-nil tracer receives
// one task span per completion and a stage span at the end; name
// labels them ("map/0", "store/0", ...).
func runStage(e *Engine, name string, policy sched.Policy, tasks []sched.TaskInfo, exec taskExec,
	onDone func(tl *metrics.Timeline, local, remote int)) {
	c := e.C
	tl := &metrics.Timeline{}
	if len(tasks) == 0 {
		c.Sim.After(0, func() { onDone(tl, 0, 0) })
		return
	}
	r := &stageRunner{
		eng:      e,
		name:     name,
		exec:     exec,
		timeline: tl,
		active:   true,
	}
	slots := make([]int, len(c.Nodes))
	for i, n := range c.Nodes {
		if n.Alive() {
			slots[i] = n.Cores
		}
	}
	cfg := sched.StageConfig{
		Name:        name,
		Policy:      policy,
		Slots:       slots,
		MaxFailures: sched.DefaultMaxFailures,
		Launch:      r.launch,
		Timer:       r.timer,
		Audit:       trace.SchedAudit(e.Tracer),
	}
	if e.Faults != nil {
		cfg.Faults = e.Faults
	}
	r.m = sched.NewStage(cfg, len(tasks))
	start := c.Sim.Now()
	r.onDone = func() {
		r.active = false
		e.stageDone(r)
		e.Tracer.StageSpan(r.name, len(tasks), start, c.Sim.Now()-start)
		onDone(r.timeline, r.local, r.remote)
	}
	e.stageStarted(r)
	r.m.Start(tasks, start)
}

// timer ticks the machine after a policy's retry hint, clamped so the
// simulation always advances past the policy's wait boundary.
func (r *stageRunner) timer(after float64) {
	r.eng.C.Sim.After(max(after, 1e-6), func() { r.m.Tick(r.eng.C.Sim.Now()) })
}

// nodeLost hands a node crash to the machine while the stage runs.
func (r *stageRunner) nodeLost(node int) {
	if !r.active {
		return
	}
	r.m.NodeLost(node)
	r.m.Dispatch(r.eng.C.Sim.Now())
}

// launch runs one launched attempt: the centralized master's per-task
// dispatch cost, then the machine's hang and injected-failure verdicts,
// then the task body.
func (r *stageRunner) launch(d sched.Decision, node int) {
	if d.Local {
		r.local++
	} else {
		r.remote++
	}
	c, id, n := r.eng.C, d.TaskID, r.eng.C.Nodes[node]
	c.Dispatch(func() {
		attempt, hang, ok := r.m.Started(id, node, c.Sim.Now())
		if !ok {
			// The node crashed, or the task settled, before launch.
			r.m.Dispatch(c.Sim.Now())
			return
		}
		body := func() {
			now := c.Sim.Now()
			if !n.Alive() {
				// The node crashed during the injected hang.
				r.m.Finished(id, node, now, sched.Loss, sched.TaskStats{}, nil)
				r.m.Dispatch(now)
				return
			}
			if fails, err := r.m.InjectedFailure(id, node, now); err != nil {
				r.eng.Tracer.InstantEvent(trace.CatFault, "fault:task-fail", node, float64(id),
					fmt.Sprintf("stage=%s fail %d: %v", r.name, fails, err))
				r.m.Finished(id, node, now, sched.Failure, sched.TaskStats{}, err)
				r.m.Dispatch(now)
				return
			}
			r.exec(id, node, now, func(stats sched.TaskStats) {
				r.finish(d, node, attempt, now, stats)
			})
		}
		if hang > 0 {
			r.eng.Tracer.InstantEvent(trace.CatFault, "fault:hang", node, hang,
				fmt.Sprintf("stage=%s task=%d stalled", r.name, id))
			c.Sim.After(hang, body)
			return
		}
		body()
	})
}

// finish records a completed attempt and re-offers idle slots. Zombies
// of a crashed node and losers to a sibling only re-offer: no timeline
// record, no span, no policy callback.
func (r *stageRunner) finish(d sched.Decision, node, attempt int, launch float64, stats sched.TaskStats) {
	now := r.eng.C.Sim.Now()
	if stats.Duration == 0 {
		// Fill in measured duration when the body did not.
		stats.Duration = now - launch
	}
	counted, crashed := r.m.Finished(d.TaskID, node, now, sched.Success, stats, nil)
	if !counted {
		r.m.Dispatch(now)
		return
	}
	r.timeline.Add(metrics.TaskRecord{
		ID:     d.TaskID,
		Node:   node,
		Launch: launch,
		Finish: now,
		Bytes:  stats.IntermediateBytes,
		Local:  d.Local,
	})
	detail := ""
	if d.Local {
		detail = "local"
	}
	r.eng.Tracer.TaskSpan(r.name, d.TaskID, attempt, node, launch, now-launch, stats.IntermediateBytes, detail)
	// Count-triggered crashes fire before the next offer pass.
	for _, node := range crashed {
		r.eng.crashNode(node)
	}
	if r.m.Remaining() == 0 {
		r.onDone()
		return
	}
	r.m.Dispatch(now)
}
