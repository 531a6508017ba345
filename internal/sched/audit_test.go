package sched

import (
	"strings"
	"testing"
)

// collectAudit gathers audit events for assertions.
func collectAudit(out *[]AuditEvent) AuditFunc {
	return func(e AuditEvent) { *out = append(*out, e) }
}

func TestELBAuditPauseAndResume(t *testing.T) {
	var events []AuditEvent
	p := NewELB(4, 0.25)
	p.Audit = collectAudit(&events)
	p.StageStart([]TaskInfo{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}, 0)

	// Pile intermediate data onto node 0 until it exceeds 125% of the
	// cluster average.
	p.Completed(0, 0, 1, TaskStats{IntermediateBytes: 100})
	if len(events) == 0 {
		t.Fatal("expected a pause event for the overloaded node")
	}
	first := events[0]
	if first.Policy != "elb" || first.Kind != "pause" || first.Node != 0 {
		t.Fatalf("first event = %+v", first)
	}
	if len(first.Loads) != 4 || first.Loads[0] != 100 {
		t.Fatalf("load snapshot = %v", first.Loads)
	}
	if !strings.Contains(first.Detail, "avg=") {
		t.Fatalf("detail %q lacks the average", first.Detail)
	}

	// Snapshot must be a copy, immune to later accounting.
	snap := first.Loads[0]
	events = events[:0]
	// Other nodes catch up; node 0 falls back under the threshold.
	p.Completed(1, 1, 2, TaskStats{IntermediateBytes: 100})
	p.Completed(2, 2, 3, TaskStats{IntermediateBytes: 100})
	p.Completed(3, 3, 4, TaskStats{IntermediateBytes: 100})
	if first.Loads[0] != snap {
		t.Fatal("audit snapshot aliased live accounting")
	}
	var sawResume bool
	for _, e := range events {
		if e.Kind == "resume" && e.Node == 0 {
			sawResume = true
		}
	}
	if !sawResume {
		t.Fatalf("no resume event after the average caught up: %+v", events)
	}
}

func TestELBAuditDisabledByDefault(t *testing.T) {
	p := NewELB(2, 0.25)
	p.StageStart([]TaskInfo{{ID: 0}}, 0)
	// Must not panic or allocate transition state when Audit is nil.
	p.Completed(0, 0, 1, TaskStats{IntermediateBytes: 50})
	if p.paused != nil {
		t.Fatal("transition state allocated without an auditor")
	}
}

func TestCADAuditThrottleAndRelieve(t *testing.T) {
	var events []AuditEvent
	p := NewCAD(NewFIFO())
	p.minSamples = 4
	p.window = 4
	p.Audit = collectAudit(&events)

	tasks := make([]TaskInfo, 64)
	for i := range tasks {
		tasks[i] = TaskInfo{ID: i}
	}
	p.StageStart(tasks, 0)
	// Establish the fast regime, keeping some concurrency in flight.
	for i := 0; i < 16; i++ {
		p.Offer(0, float64(i))
		p.Offer(0, float64(i))
		p.Completed(i, 0, float64(i), TaskStats{Duration: 1})
	}
	// Congestion: durations jump far past 2x the median.
	for i := 16; i < 32; i++ {
		p.Offer(0, float64(i))
		p.Completed(i, 0, float64(i), TaskStats{Duration: 10})
	}
	var throttles int
	for _, e := range events {
		if e.Policy != "cad" {
			t.Fatalf("unexpected policy %q", e.Policy)
		}
		if e.Kind == "throttle" {
			throttles++
			if int(e.Value) != p.Limit() && e.Value <= 0 {
				t.Fatalf("throttle event value = %v", e.Value)
			}
			if !strings.Contains(e.Detail, "limit") {
				t.Fatalf("detail %q lacks the limit transition", e.Detail)
			}
		}
	}
	if throttles == 0 {
		t.Fatalf("no throttle events; got %+v", events)
	}

	// Relief: durations fall back to the fast regime.
	events = events[:0]
	for i := 32; i < 64; i++ {
		p.Offer(0, float64(i))
		p.Completed(i, 0, float64(i), TaskStats{Duration: 1})
	}
	var relieves int
	for _, e := range events {
		if e.Kind == "relieve" {
			relieves++
		}
	}
	if relieves == 0 {
		t.Fatalf("no relieve events; got %+v", events)
	}
}

func TestDelayAuditWait(t *testing.T) {
	var events []AuditEvent
	p := NewDelay(3)
	p.Audit = collectAudit(&events)
	p.StageStart([]TaskInfo{{ID: 0, PreferredNodes: []int{1}}}, 0)

	d := p.Offer(0, 1) // non-local offer inside the wait window
	if d.TaskID >= 0 {
		t.Fatalf("expected a decline, got task %d", d.TaskID)
	}
	if len(events) != 1 {
		t.Fatalf("events = %+v", events)
	}
	e := events[0]
	if e.Policy != "delay" || e.Kind != "wait" || e.Node != 0 {
		t.Fatalf("event = %+v", e)
	}
	if e.Value <= 0 || e.Value > 3 {
		t.Fatalf("remaining wait = %v", e.Value)
	}
}
