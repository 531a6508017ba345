package trace

import (
	"fmt"
	"strconv"
	"sync"

	"hpcmr/engine"
	"hpcmr/internal/sched"
)

// SchedAudit adapts a tracer into a scheduler decision auditor: ELB
// pause/resume, CAD throttle adjustments, and delay-scheduling waits
// become CatSched instants named "policy:kind", and fault and recovery
// decisions (Policy "fault") CatFault instants named "fault:kind" —
// the category the simulator, the engine and dist share — stamped on
// the tracer's clock (virtual time under the simulator, wall time under
// the real engine). Set it on a policy's or a sched.Stage's Audit
// field; EngineListener routes a runtime's decisions through it.
func SchedAudit(t *Tracer) sched.AuditFunc {
	if t == nil {
		return nil
	}
	return func(ev sched.AuditEvent) {
		detail := ev.Detail
		if len(ev.Loads) > 0 {
			b := append([]byte(detail), " loads=["...)
			for i, l := range ev.Loads {
				if i > 0 {
					b = append(b, ' ')
				}
				b = strconv.AppendFloat(b, l, 'g', 4, 64) // %.4g without boxing l
			}
			detail = string(append(b, ']'))
		}
		cat := CatSched
		if ev.Policy == "fault" {
			cat = CatFault
		}
		t.Emit(Event{
			TS: t.Now(), Kind: Instant, Cat: cat,
			Name: ev.Policy + ":" + ev.Kind,
			Node: ev.Node, Peer: -1, Task: -1,
			Bytes: ev.Value, Detail: detail,
		})
	}
}

// engineListener records real-engine lifecycle events as spans and its
// decisions as instants.
type engineListener struct {
	t     *Tracer
	audit sched.AuditFunc
	mu    sync.Mutex
	// stage start times by name; stages run sequentially per runtime
	// but listeners may serve several runtimes, so keep it keyed.
	starts map[string]float64
}

// EngineListener returns an engine.Listener that records stage,
// task-attempt and fetch spans into t, and the runtime's decisions as
// SchedAudit does. A task span is counted work, as the simulator
// records it, unless its detail says "failed" or "lost" (discarded by
// the dispatcher: gone with its executor, or beaten by a sibling). Use
// a wall-clock tracer (NewWall): task timestamps convert through the
// tracer's epoch.
func EngineListener(t *Tracer) engine.Listener {
	return &engineListener{t: t, audit: SchedAudit(t), starts: map[string]float64{}}
}

func (l *engineListener) OnStageStart(name string, tasks int) {
	l.mu.Lock()
	l.starts[name] = l.t.Now()
	l.mu.Unlock()
}

func (l *engineListener) OnStageEnd(m engine.StageMetrics) {
	dur := m.Duration.Seconds()
	l.mu.Lock()
	start, ok := l.starts[m.Name]
	delete(l.starts, m.Name)
	l.mu.Unlock()
	if !ok {
		// Listener attached mid-stage: anchor on the end time.
		start = l.t.Now() - dur
	}
	name := m.Name
	if !m.Success {
		name += " (failed)"
	}
	l.t.StageSpan(name, m.Tasks, start, dur)
}

func (l *engineListener) OnTaskStart(e engine.TaskEvent) {}

func (l *engineListener) OnTaskEnd(e engine.TaskEvent) {
	detail := ""
	switch {
	case e.Failed:
		detail = "failed"
	case !e.Counted:
		detail = "lost"
	}
	l.t.Emit(Event{
		TS: l.t.Since(e.Start), Dur: e.Duration, Kind: Span, Cat: CatTask,
		Name: "task", Node: e.Executor, Peer: -1, Stage: e.Stage,
		Task: e.TaskID, Attempt: e.Attempt, Bytes: e.ShuffleBytes,
		Records: float64(e.ShuffleRecords), Detail: detail,
	})
}

// OnFetch records real-engine shuffle fetches as CatFetch spans. The
// engine's in-memory shuffle has no per-mapper transfer granularity, so
// the whole fetch is one span with the shuffle ID standing in for the
// stage name and the source peer unknown (-1). The detail tags whether
// the chunks came from the executor's own store or over the network —
// the distributed driver emits one span per class, so a trace shows the
// local/remote shuffle split directly.
func (l *engineListener) OnFetch(e engine.FetchEvent) {
	detail := "local"
	if e.Remote {
		detail = "remote"
	}
	l.t.Emit(Event{
		TS: l.t.Since(e.Start), Dur: e.Duration, Kind: Span, Cat: CatFetch,
		Name: "fetch", Node: e.Executor, Peer: -1,
		Stage: fmt.Sprintf("shuffle-%d", e.Shuffle), Task: e.TaskID,
		Bytes: e.Bytes, Records: float64(e.Records), Detail: detail,
	})
}

func (l *engineListener) OnDecision(e sched.AuditEvent) { l.audit(e) }
