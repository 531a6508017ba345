package sched

import (
	"reflect"
	"testing"
)

func auditKinds(events []AuditEvent) map[string]int {
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Policy+":"+e.Kind]++
	}
	return kinds
}

// TestShuffleLocalityPrefersLocal: a slot offer takes the offering
// node's own task even when an earlier-queued task prefers elsewhere.
func TestShuffleLocalityPrefersLocal(t *testing.T) {
	p := NewShuffleLocality(2)
	p.StageStart([]TaskInfo{
		{ID: 0, PreferredNodes: []int{0}},
		{ID: 1, PreferredNodes: []int{1}},
	}, 0)
	d := p.Offer(1, 0)
	if d.TaskID != 1 || !d.Local {
		t.Fatalf("node 1 offered task %d (local=%v), want its own task 1", d.TaskID, d.Local)
	}
	d = p.Offer(0, 0)
	if d.TaskID != 0 || !d.Local {
		t.Fatalf("node 0 offered task %d (local=%v), want its own task 0", d.TaskID, d.Local)
	}
}

// TestShuffleLocalityNoPrefBeforeSteal: a node with no local work runs
// preference-free tasks before stealing another node's preferred task.
func TestShuffleLocalityNoPrefBeforeSteal(t *testing.T) {
	p := NewShuffleLocality(2)
	p.StageStart([]TaskInfo{
		{ID: 0, PreferredNodes: []int{0}},
		{ID: 1}, // no preference
	}, 0)
	d := p.Offer(1, 0)
	if d.TaskID != 1 {
		t.Fatalf("node 1 stole task %d; want preference-free task 1", d.TaskID)
	}
	d = p.Offer(1, 0)
	if d.TaskID != 0 || d.Local {
		t.Fatalf("got task %d (local=%v), want remote steal of task 0", d.TaskID, d.Local)
	}
}

// TestShuffleLocalityNeverWaits: when only remote-preferring tasks
// remain, a free slot steals immediately instead of declining — the
// paper's no-wait rule — and the steal is audited as a remote launch.
func TestShuffleLocalityNeverWaits(t *testing.T) {
	var events []AuditEvent
	p := NewShuffleLocality(2)
	p.Audit = collectAudit(&events)
	p.StageStart([]TaskInfo{{ID: 0, PreferredNodes: []int{0}}}, 0)
	d := p.Offer(1, 0)
	if d.TaskID != 0 {
		t.Fatalf("node 1 declined (task %d); locality must never wait", d.TaskID)
	}
	if d.Local {
		t.Fatal("stolen task reported Local=true")
	}
	kinds := auditKinds(events)
	if kinds["locality:remote"] != 1 {
		t.Fatalf("audit kinds %v, want one locality:remote", kinds)
	}
}

// TestShuffleLocalityELBVeto: the imbalance rule wins the trade — a
// paused node is declined even its own local work, and the veto is
// audited; an unpaused peer still drains the queue.
func TestShuffleLocalityELBVeto(t *testing.T) {
	var events []AuditEvent
	p := NewShuffleLocality(2)
	p.Audit = collectAudit(&events)

	// One completed task deposited all its bytes on node 0: load 100 vs
	// average 50 exceeds the 25% threshold, pausing node 0.
	p.StageStart([]TaskInfo{{ID: 0}}, 0)
	if d := p.Offer(0, 0); d.TaskID != 0 {
		t.Fatalf("warm-up offer got %d", d.TaskID)
	}
	p.Completed(0, 0, 1, TaskStats{IntermediateBytes: 100})
	if !p.Paused(0) {
		t.Fatal("node 0 not paused after lopsided completion")
	}

	p.StageStart([]TaskInfo{
		{ID: 0, PreferredNodes: []int{0}},
		{ID: 1, PreferredNodes: []int{0}},
	}, 2)
	if d := p.Offer(0, 2); d.TaskID != -1 {
		t.Fatalf("paused node 0 was given task %d; ELB veto must win over locality", d.TaskID)
	}
	for want := 0; want < 2; want++ {
		if d := p.Offer(1, 2); d.TaskID != want {
			t.Fatalf("node 1 offer got task %d, want %d", d.TaskID, want)
		}
	}
	kinds := auditKinds(events)
	if kinds["locality:elb-veto"] == 0 {
		t.Fatalf("audit kinds %v, want a locality:elb-veto", kinds)
	}
	if kinds["locality:remote"] != 2 {
		t.Fatalf("audit kinds %v, want two locality:remote (both steals off the paused owner)", kinds)
	}
}

// TestShuffleLocalityDrains: mixed preferences fully drain with no
// duplicates and no wedge under round-robin offers.
func TestShuffleLocalityDrains(t *testing.T) {
	const nodes = 4
	p := NewShuffleLocality(nodes)
	p.StageStart(tasks(40, func(i int) []int {
		switch i % 3 {
		case 0:
			return []int{i % nodes}
		case 1:
			return []int{i % nodes, (i + 1) % nodes}
		default:
			return nil
		}
	}), 0)
	got := drain(t, p, nodes, 0)
	if len(got) != 40 {
		t.Fatalf("assigned %d tasks, want 40", len(got))
	}
}

// TestOfferLocalNeverSteals: a window slot takes only work its node can
// run without taking it from an owner. ShuffleLocality hands out the
// node's own tasks, then preference-free ones; FIFO, which ignores
// preferences, only preference-free ones. Neither returns a task
// preferring another node, even when nothing else is left.
func TestOfferLocalNeverSteals(t *testing.T) {
	infos := []TaskInfo{
		{ID: 0, PreferredNodes: []int{1}},
		{ID: 1, PreferredNodes: []int{0}},
		{ID: 2},
		{ID: 3, PreferredNodes: []int{1, 2}},
		{ID: 4, PreferredNodes: []int{2, 0}},
	}
	for _, c := range []struct {
		name string
		p    interface {
			Policy
			LocalOfferer
		}
		want []int // what node 0's window slots take, in order
	}{
		{"fifo", NewFIFO(), []int{2}},
		{"shuffle-locality", NewShuffleLocality(3), []int{1, 4, 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.p.StageStart(infos, 0)
			var got []int
			for d := c.p.OfferLocal(0, 0); d.TaskID >= 0; d = c.p.OfferLocal(0, 0) {
				if !d.Local {
					t.Errorf("task %d from a window offer reported Local=false", d.TaskID)
				}
				got = append(got, d.TaskID)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("node 0's window took %v, want %v", got, c.want)
			}
			if n := c.p.Pending(); n != len(infos)-len(c.want) {
				t.Fatalf("%d tasks pending after the window declined, want %d", n, len(infos)-len(c.want))
			}
		})
	}
}

// TestOfferLocalPausedDeclines: OfferLocal gives a node the ELB rule
// pauses nothing, not even its own task, so its window drains; once the
// average catches up the node's window is filled again.
func TestOfferLocalPausedDeclines(t *testing.T) {
	p := NewShuffleLocality(2)
	p.StageStart([]TaskInfo{{ID: 0}}, 0)
	p.Offer(0, 0)
	p.Completed(0, 0, 1, TaskStats{IntermediateBytes: 100})
	p.StageStart([]TaskInfo{{ID: 0, PreferredNodes: []int{0}}, {ID: 1}}, 2)
	if d := p.OfferLocal(0, 2); d.TaskID != -1 {
		t.Fatalf("paused node 0 got task %d from a window offer", d.TaskID)
	}
	p.Completed(9, 1, 3, TaskStats{IntermediateBytes: 100})
	if d := p.OfferLocal(0, 3); d.TaskID != 0 {
		t.Fatalf("resumed node 0 got task %d from a window offer, want its own task 0", d.TaskID)
	}
}
