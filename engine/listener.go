package engine

import (
	"sync"
	"time"

	"hpcmr/internal/sched"
)

// Listener receives runtime lifecycle events and decisions — the hook
// point for progress UIs, structured logging, tracing, or custom
// metrics. Callbacks run synchronously on runtime goroutines, some
// under a stage's lock, and must return quickly; they must not call
// back into the runtime.
//
// The runtime isolates itself from misbehaving listeners: a panic in
// any callback is recovered and discarded, so an observer bug can
// never wedge or fail a stage. Listeners may be added while stages are
// in flight; a listener added mid-stage observes only events fired
// after registration.
type Listener interface {
	// OnStageStart fires when a stage begins executing.
	OnStageStart(name string, tasks int)
	// OnStageEnd fires when a stage finishes (successfully or not).
	OnStageEnd(m StageMetrics)
	// OnTaskStart fires when a task attempt begins running on an
	// executor slot. Only Stage, TaskID, Attempt, Executor, and Start
	// are populated.
	OnTaskStart(e TaskEvent)
	// OnTaskEnd fires after every task attempt, once the stage's
	// dispatcher has decided it: Counted carries the verdict. Every
	// counted end fires before its stage's OnStageEnd; an attempt the
	// stage stopped waiting for — one that went down with its executor
	// and outlived the stage — may end after it, never counted.
	OnTaskEnd(e TaskEvent)
	// OnFetch fires after every successful shuffle fetch, carrying the
	// records and approximate bytes the reduce side pulled.
	OnFetch(e FetchEvent)
	// OnDecision fires for every scheduler and fault decision: the
	// policies' (ELB pause/resume, CAD throttle adjustments,
	// delay-scheduling waits, shuffle-locality preferences), the
	// spill tier's (Policy "spill") and the runtime's fault and
	// recovery decisions (Policy "fault": executor crashes, lost
	// attempts, requeues, injected hangs and failures, fetch retries).
	// A policy reports to the listeners subscribed when its stage
	// started.
	OnDecision(e sched.AuditEvent)
}

// TaskEvent describes one task attempt.
type TaskEvent struct {
	Stage    string
	TaskID   int
	Attempt  int
	Executor int
	// Start is when the attempt began executing (monotonic wall clock).
	Start time.Time
	// Duration is the attempt's execution time in seconds (zero in
	// OnTaskStart events).
	Duration     float64
	ShuffleBytes float64
	// ShuffleRecords is how many shuffle records the attempt wrote.
	ShuffleRecords int64
	// Failed marks an attempt whose body returned an error or panicked.
	Failed bool
	// Counted says the stage's dispatcher counted the attempt — as a
	// success or as a failure against the task's retry budget — rather
	// than discarding it as lost with its executor or beaten by a
	// sibling copy. Zero in OnTaskStart events.
	Counted bool
}

// FetchEvent describes one successful shuffle fetch: the reduce-side
// task pulling one reduce partition's chunks from every map partition.
type FetchEvent struct {
	Shuffle    int
	ReducePart int
	TaskID     int
	Attempt    int
	Executor   int
	// Start is when the fetch began (monotonic wall clock).
	Start time.Time
	// Duration is the fetch's wall time in seconds, including retry
	// backoff against injected fetch faults.
	Duration float64
	// Records and Bytes are the fetched volume (bytes approximate, from
	// chunk element sizes).
	Records int64
	Bytes   float64
	// Remote marks the volume another executor produced: the
	// distributed runtime pulled it through the shuffle service, and the
	// local runtime reports the volume that would have crossed the
	// network. Runtime.EmitFetch builds the local/remote pair.
	Remote bool
}

// listeners is a concurrency-safe fan-out.
type listeners struct {
	mu   sync.RWMutex
	subs []Listener
}

func (l *listeners) add(s Listener) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.subs = append(l.subs, s)
}

// active reports whether any listener is subscribed, letting hot paths
// skip event assembly entirely when nobody is watching.
func (l *listeners) active() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.subs) > 0
}

// guard recovers a panicking listener so observers cannot take down
// runtime goroutines (the contract documented on Listener).
func guard() {
	_ = recover()
}

func (l *listeners) stageStart(name string, tasks int) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, s := range l.subs {
		func() {
			defer guard()
			s.OnStageStart(name, tasks)
		}()
	}
}

func (l *listeners) stageEnd(m StageMetrics) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, s := range l.subs {
		func() {
			defer guard()
			s.OnStageEnd(m)
		}()
	}
}

func (l *listeners) taskStart(e TaskEvent) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, s := range l.subs {
		func() {
			defer guard()
			s.OnTaskStart(e)
		}()
	}
}

func (l *listeners) taskEnd(e TaskEvent) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, s := range l.subs {
		func() {
			defer guard()
			s.OnTaskEnd(e)
		}()
	}
}

func (l *listeners) fetch(e FetchEvent) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, s := range l.subs {
		func() {
			defer guard()
			s.OnFetch(e)
		}()
	}
}

func (l *listeners) decision(e sched.AuditEvent) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, s := range l.subs {
		func() {
			defer guard()
			s.OnDecision(e)
		}()
	}
}

// AddListener subscribes a listener to runtime events. It is safe to
// call concurrently with running stages.
func (rt *Runtime) AddListener(l Listener) {
	rt.listeners.add(l)
}

// FuncListener adapts plain functions into a Listener; nil fields are
// skipped, so existing listeners stay source-compatible as callbacks
// are added.
type FuncListener struct {
	StageStart func(name string, tasks int)
	StageEnd   func(m StageMetrics)
	TaskStart  func(e TaskEvent)
	TaskEnd    func(e TaskEvent)
	Fetch      func(e FetchEvent)
	Decision   func(e sched.AuditEvent)
}

// OnStageStart implements Listener.
func (f FuncListener) OnStageStart(name string, tasks int) {
	if f.StageStart != nil {
		f.StageStart(name, tasks)
	}
}

// OnStageEnd implements Listener.
func (f FuncListener) OnStageEnd(m StageMetrics) {
	if f.StageEnd != nil {
		f.StageEnd(m)
	}
}

// OnTaskStart implements Listener.
func (f FuncListener) OnTaskStart(e TaskEvent) {
	if f.TaskStart != nil {
		f.TaskStart(e)
	}
}

// OnTaskEnd implements Listener.
func (f FuncListener) OnTaskEnd(e TaskEvent) {
	if f.TaskEnd != nil {
		f.TaskEnd(e)
	}
}

// OnFetch implements Listener.
func (f FuncListener) OnFetch(e FetchEvent) {
	if f.Fetch != nil {
		f.Fetch(e)
	}
}

// OnDecision implements Listener.
func (f FuncListener) OnDecision(e sched.AuditEvent) {
	if f.Decision != nil {
		f.Decision(e)
	}
}
