// Package trace is the structured tracing and timeline-analysis
// subsystem. It captures per-task, per-node execution spans and
// scheduler decision events from both execution layers — the real
// multi-executor engine (wall clock) and the discrete-event simulator
// (virtual clock) — into sharded in-memory ring buffers, exports them
// as Chrome trace_event JSON (loadable in Perfetto or chrome://tracing),
// and reconstructs the paper's characterization diagnostics
// (per-node intermediate-data skew, phase dissection, shuffle-fetch
// breakdown, stragglers) from a trace alone.
//
// The span model is hierarchical:
//
//	job   — one simulated or real job (CatJob)
//	stage — one phase/stage of the job (CatStage)
//	task  — one task attempt on one node (CatTask)
//	fetch — one shuffle fetch from a mapper node to a reducer (CatFetch)
//
// plus instantaneous scheduler decision-audit events (CatSched): ELB
// pause/resume with per-node load snapshots, CAD congestion throttle
// adjustments, and delay-scheduling locality waits.
//
// Capture is concurrency-safe and cheap: events go into bounded
// per-shard rings guarded by per-shard mutexes (executors on different
// shards never contend), and a disabled tracer — a nil *Tracer — costs
// one branch and zero allocations on the task hot path.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Kind distinguishes spans from instantaneous events.
type Kind uint8

// Event kinds.
const (
	// Span is a complete interval: [TS, TS+Dur].
	Span Kind = iota
	// Instant is a point event at TS.
	Instant
)

func (k Kind) String() string {
	if k == Instant {
		return "instant"
	}
	return "span"
}

// Category places an event in the span hierarchy.
type Category uint8

// Event categories.
const (
	// CatJob spans one whole job.
	CatJob Category = iota
	// CatStage spans one stage/phase.
	CatStage
	// CatTask spans one task attempt.
	CatTask
	// CatFetch spans one shuffle fetch (Peer = source node).
	CatFetch
	// CatSched marks a scheduler decision-audit event.
	CatSched
	// CatFault marks an injected fault or a recovery decision.
	CatFault
)

func (c Category) String() string {
	switch c {
	case CatStage:
		return "stage"
	case CatTask:
		return "task"
	case CatFetch:
		return "fetch"
	case CatSched:
		return "sched"
	case CatFault:
		return "fault"
	default:
		return "job"
	}
}

// parseCategory inverts Category.String.
func parseCategory(s string) Category {
	switch s {
	case "stage":
		return CatStage
	case "task":
		return CatTask
	case "fetch":
		return CatFetch
	case "sched":
		return CatSched
	case "fault":
		return CatFault
	default:
		return CatJob
	}
}

// Event is one captured trace record. Times are float64 seconds on the
// tracer's clock: monotonic wall seconds since tracer creation for real
// runs, virtual seconds for simulated runs.
type Event struct {
	// TS is the event's start time; Dur its length (0 for instants).
	TS, Dur float64
	// Kind is Span or Instant.
	Kind Kind
	// Cat is the event's place in the span hierarchy.
	Cat Category
	// Name labels the event: the job or stage name, "task", "fetch", or
	// the decision "policy:kind".
	Name string
	// Node is the executor/node the event happened on (-1 = driver).
	Node int
	// Peer is the far-end node of a fetch (the mapper being read); -1
	// when not applicable.
	Peer int
	// Stage is the enclosing stage name for task and fetch spans.
	Stage string
	// Task is the task index within its stage; -1 when not applicable.
	Task int
	// Attempt numbers retries of the same task.
	Attempt int
	// Bytes is the data volume the event accounts for: intermediate
	// bytes deposited (tasks), bytes fetched (fetches), or the decision
	// value (sched events: node load, in-flight limit, or wait seconds).
	Bytes float64
	// Records is the record count behind Bytes, where known (fetch
	// spans; task spans of shuffle map stages). Zero means unknown —
	// record counts only became a traced dimension with shuffle-volume
	// accounting.
	Records float64
	// Detail is a free-form elaboration (failure notes, load snapshots,
	// "local" on a simulator task whose launch was data-local,
	// "local"/"remote" on real-engine fetches).
	Detail string
}

// End returns the event's end time.
func (e Event) End() float64 { return e.TS + e.Dur }

// Ring sizing: events shard by node ID over numShards rings, and each
// ring grows by append as it records, up to shardCap events; a full ring
// overwrites its oldest events and counts them as dropped.
const (
	numShards = 8
	shardCap  = 32768
)

// shard is one ring buffer. next counts writes forever; the ring holds
// the last len(buf) of them, and len(buf) == next until it reaches
// shardCap.
type shard struct {
	mu   sync.Mutex
	buf  []Event
	next int
	_    [64]byte // keep neighboring shards off one cache line
}

// Tracer captures events against a clock. A nil *Tracer is a valid,
// disabled tracer: every method is a cheap no-op, so call sites need no
// enabled-checks on the hot path.
type Tracer struct {
	clock  func() float64
	epoch  time.Time
	shards [numShards]shard
}

// New returns a tracer reading time from clock — pass the simulator's
// Sim.Now for virtual-time tracing, or any monotonic seconds source.
func New(clock func() float64) *Tracer {
	return &Tracer{clock: clock}
}

// NewWall returns a tracer on the monotonic wall clock, with its epoch
// (time zero) at the call.
func NewWall() *Tracer {
	epoch := time.Now()
	t := New(func() float64 { return time.Since(epoch).Seconds() })
	t.epoch = epoch
	return t
}

// Enabled reports whether the tracer captures events.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the current time on the tracer's clock (0 when disabled).
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Since converts an absolute wall timestamp to the tracer's clock; it
// is meaningful only for tracers built with NewWall.
func (t *Tracer) Since(tm time.Time) float64 {
	if t == nil {
		return 0
	}
	return tm.Sub(t.epoch).Seconds()
}

// Emit records one event. Safe for concurrent use; events for different
// shards (≈ different executors) do not contend.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	idx := 0
	if e.Node > 0 {
		idx = e.Node % len(t.shards)
	}
	s := &t.shards[idx]
	s.mu.Lock()
	if len(s.buf) < shardCap {
		s.buf = append(s.buf, e)
	} else {
		s.buf[s.next%shardCap] = e
	}
	s.next++
	s.mu.Unlock()
}

// JobSpan records a completed job.
func (t *Tracer) JobSpan(name string, start, dur float64) {
	if t == nil {
		return
	}
	t.Emit(Event{TS: start, Dur: dur, Kind: Span, Cat: CatJob, Name: name,
		Node: -1, Peer: -1, Task: -1})
}

// StageSpan records a completed stage of n tasks.
func (t *Tracer) StageSpan(name string, tasks int, start, dur float64) {
	if t == nil {
		return
	}
	t.Emit(Event{TS: start, Dur: dur, Kind: Span, Cat: CatStage, Name: name,
		Node: -1, Peer: -1, Task: tasks})
}

// TaskSpan records one task attempt.
func (t *Tracer) TaskSpan(stage string, task, attempt, node int, start, dur, bytes float64, detail string) {
	if t == nil {
		return
	}
	t.Emit(Event{TS: start, Dur: dur, Kind: Span, Cat: CatTask, Name: "task",
		Node: node, Peer: -1, Stage: stage, Task: task, Attempt: attempt,
		Bytes: bytes, Detail: detail})
}

// FetchSpan records one shuffle fetch of bytes (and, where counted,
// records — pass 0 when unknown) from src into dst.
func (t *Tracer) FetchSpan(stage string, task, src, dst int, start, dur, bytes, records float64) {
	if t == nil {
		return
	}
	t.Emit(Event{TS: start, Dur: dur, Kind: Span, Cat: CatFetch, Name: "fetch",
		Node: dst, Peer: src, Stage: stage, Task: task, Bytes: bytes, Records: records})
}

// InstantEvent records a point event at the current clock reading.
func (t *Tracer) InstantEvent(cat Category, name string, node int, value float64, detail string) {
	if t == nil {
		return
	}
	t.Emit(Event{TS: t.clock(), Kind: Instant, Cat: cat, Name: name,
		Node: node, Peer: -1, Task: -1, Bytes: value, Detail: detail})
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.buf)
		s.mu.Unlock()
	}
	return n
}

// Drops returns how many events were overwritten by ring wraparound.
func (t *Tracer) Drops() int64 {
	if t == nil {
		return 0
	}
	var d int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		d += int64(s.next - len(s.buf))
		s.mu.Unlock()
	}
	return d
}

// Events returns a snapshot of all retained events, oldest-first per
// shard, merged and sorted by start time (stable, so same-instant
// events keep shard order).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		// Once the ring is full its oldest event sits at next %
		// shardCap; before that head == len(buf), so the buffer comes
		// out whole.
		head := s.next % shardCap
		out = append(out, s.buf[head:]...)
		out = append(out, s.buf[:head]...)
		s.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}
