// Package fault is the deterministic fault-injection subsystem: seeded
// fault plans replayed identically against either execution backend —
// the real multi-executor engine (package engine, wall clock) or the
// discrete-event simulator (internal/core, virtual clock).
//
// The fault model follows the paper's characterization of how HPC
// MapReduce degrades: storage-tier degradation rather than clean
// crashes. A plan is a list of events:
//
//   - crash: a node/executor is permanently lost at a time or
//     completed-task-count trigger; its intermediate (map) outputs are
//     lost with it and must be re-executed through lineage.
//   - slow: a transient performance degradation window — the SSD
//     write-buffer depletion and GC stalls of Fig 8 — dividing the
//     node's effective speed by Factor for Duration seconds.
//   - fetch-loss: shuffle fetches sourced from a node fail transiently
//     (the Lustre lock-revocation pathology of Figs 6-7 at its worst);
//     recoverable by bounded retry with backoff.
//   - task-fail: task attempts on a node error out (bad local device,
//     OOM kill), spending the per-task retry budget, but never all of
//     it: a plan degrades a job and never fails it.
//   - hang: task attempts on a node stall for Duration seconds before
//     running (kernel writeback stall); speculation's territory.
//
// Plans are plain data: JSON encode/decode round-trips them exactly,
// and Generate derives a randomized plan deterministically from a seed,
// so a failing chaos run is reproducible from its seed alone.
package fault

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Kind is the fault type of one plan event.
type Kind string

// Fault kinds.
const (
	// KindCrash permanently removes a node and its intermediate data.
	KindCrash Kind = "crash"
	// KindSlow divides a node's speed by Factor during a window.
	KindSlow Kind = "slow"
	// KindFetchLoss makes shuffle fetches sourced from a node fail.
	KindFetchLoss Kind = "fetch-loss"
	// KindTaskFail makes task attempts on a node return an error.
	KindTaskFail Kind = "task-fail"
	// KindHang stalls task attempts on a node before they run.
	KindHang Kind = "hang"
)

// Event is one fault in a plan. The zero values of unused fields are
// omitted from the JSON form.
type Event struct {
	// Kind is the fault type.
	Kind Kind `json:"kind"`
	// Node is the target node/executor ID.
	Node int `json:"node"`
	// At arms the event at this many seconds on the backend's clock
	// (virtual seconds for the simulator, seconds since runtime start
	// for the engine). For crashes, At and AfterTasks are alternative
	// triggers; AfterTasks wins when both are set.
	At float64 `json:"at,omitempty"`
	// AfterTasks triggers a crash once this many tasks have completed
	// across the job (0 = use the At trigger). Count-based triggers
	// replay identically across backends regardless of clock rate.
	AfterTasks int `json:"afterTasks,omitempty"`
	// Duration is the window length for slow and hang events.
	Duration float64 `json:"duration,omitempty"`
	// Factor is the slowdown divisor for slow events (> 1).
	Factor float64 `json:"factor,omitempty"`
	// Count bounds how many operations the event affects (fetch-loss,
	// task-fail, hang); 0 means 1.
	Count int `json:"count,omitempty"`
}

// budget returns the event's operation budget.
func (e Event) budget() int {
	if e.Count <= 0 {
		return 1
	}
	return e.Count
}

// String formats an event compactly.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s n%d", e.Kind, e.Node)
	if e.AfterTasks > 0 {
		fmt.Fprintf(&b, " afterTasks=%d", e.AfterTasks)
	} else {
		fmt.Fprintf(&b, " at=%.3g", e.At)
	}
	if e.Duration > 0 {
		fmt.Fprintf(&b, " dur=%.3g", e.Duration)
	}
	if e.Factor > 0 {
		fmt.Fprintf(&b, " factor=%.3g", e.Factor)
	}
	if e.Count > 1 {
		fmt.Fprintf(&b, " count=%d", e.Count)
	}
	return b.String()
}

// Plan is a complete, replayable fault schedule.
type Plan struct {
	// Seed records the generator seed the plan came from (0 for
	// hand-written plans); it does not influence replay.
	Seed int64 `json:"seed"`
	// Events are the plan's faults, in no particular order.
	Events []Event `json:"events"`
}

// Validate reports the first structural problem in the plan.
func (p Plan) Validate() error {
	for i, e := range p.Events {
		switch e.Kind {
		case KindCrash, KindSlow, KindFetchLoss, KindTaskFail, KindHang:
		default:
			return fmt.Errorf("fault: event %d: unknown kind %q", i, e.Kind)
		}
		if e.Node < 0 {
			return fmt.Errorf("fault: event %d: negative node %d", i, e.Node)
		}
		if e.At < 0 || e.Duration < 0 || e.AfterTasks < 0 || e.Count < 0 {
			return fmt.Errorf("fault: event %d: negative trigger field", i)
		}
		switch e.Kind {
		case KindSlow:
			if e.Factor <= 1 {
				return fmt.Errorf("fault: event %d: slow factor %v must be > 1", i, e.Factor)
			}
			if e.Duration <= 0 {
				return fmt.Errorf("fault: event %d: slow event needs a duration", i)
			}
		case KindHang:
			if e.Duration <= 0 {
				return fmt.Errorf("fault: event %d: hang event needs a duration", i)
			}
		case KindCrash:
			if e.AfterTasks == 0 && e.At == 0 {
				// A crash at t=0 is a node that never existed; require an
				// explicit trigger so plans state intent.
				return fmt.Errorf("fault: event %d: crash needs an At or AfterTasks trigger", i)
			}
		}
	}
	return nil
}

// String summarizes the plan, one event per line.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan seed=%d events=%d", p.Seed, len(p.Events))
	for _, e := range p.Events {
		b.WriteString("\n  ")
		b.WriteString(e.String())
	}
	return b.String()
}

// Encode serializes the plan as canonical JSON.
func (p Plan) Encode() ([]byte, error) {
	return json.Marshal(p)
}

// Decode parses a plan serialized by Encode and validates it.
func Decode(data []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return Plan{}, fmt.Errorf("fault: decode: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Filter returns a sub-plan holding only the events of the given
// kinds, preserving order and the seed. The distributed runtime splits
// a plan this way: crash, hang and task-fail events stay driver-side,
// where its engine decides them, while slow and fetch-loss events ship
// to the executor processes and replay there.
func (p Plan) Filter(kinds ...Kind) Plan {
	keep := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		keep[k] = true
	}
	out := Plan{Seed: p.Seed}
	for _, e := range p.Events {
		if keep[e.Kind] {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// CrashTimes returns the distinct time triggers of the plan's
// time-based crash events, ascending — the instants a simulator must
// visit so crashes fire exactly on schedule.
func (p Plan) CrashTimes() []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, e := range p.Events {
		if e.Kind == KindCrash && e.AfterTasks == 0 && !seen[e.At] {
			seen[e.At] = true
			out = append(out, e.At)
		}
	}
	sort.Float64s(out)
	return out
}
