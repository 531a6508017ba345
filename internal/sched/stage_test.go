package sched

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// placed is one launch decision: task on node.
type placed struct{ task, node int }

// rig drives a Stage the way a runtime adaptor does, on a fake clock:
// it records launches, timer deadlines and audit events, and re-runs an
// offer pass after every attempt report.
type rig struct {
	t        *testing.T
	now      float64
	s        *Stage
	launches []placed
	timers   []float64 // pending Tick deadlines, in request order
	audits   []string
}

func newRig(t *testing.T, p Policy, slots []int, window int, speculate bool, tasks []TaskInfo) *rig {
	r := &rig{t: t}
	r.s = NewStage(StageConfig{
		Name: "test", Policy: p, Slots: slots, Window: window,
		MaxFailures: DefaultMaxFailures, Speculate: speculate,
		Launch: func(d Decision, node int) { r.launches = append(r.launches, placed{d.TaskID, node}) },
		Timer:  func(after float64) { r.timers = append(r.timers, r.now+after) },
		Audit:  func(e AuditEvent) { r.audits = append(r.audits, e.Kind) },
	}, len(tasks))
	r.s.Start(tasks, r.now)
	return r
}

// start reports an attempt's start and requires it to run.
func (r *rig) start(task, node int) int {
	r.t.Helper()
	attempt, ok := r.s.Started(task, node, r.now)
	if !ok {
		r.t.Fatalf("attempt of task %d on node %d refused to start", task, node)
	}
	return attempt
}

// finish reports an attempt's end, then re-offers, and returns whether
// the attempt counted.
func (r *rig) finish(task, node int, out Outcome, dur float64) bool {
	var err error
	if out == Failure {
		err = errors.New("injected")
	}
	counted := r.s.Finished(task, node, r.now, out, TaskStats{Duration: dur}, err)
	r.s.Dispatch(r.now)
	return counted
}

// tickFirst fires the earliest pending timer only.
func (r *rig) tickFirst() {
	r.t.Helper()
	if len(r.timers) == 0 {
		r.t.Fatal("no timer pending")
	}
	i := slices.Index(r.timers, slices.Min(r.timers))
	r.now = r.timers[i]
	r.timers = slices.Delete(r.timers, i, i+1)
	r.s.Tick(r.now)
}

func (r *rig) wantLaunches(want ...placed) {
	r.t.Helper()
	if !slices.Equal(r.launches, want) {
		r.t.Fatalf("launches %v, want %v", r.launches, want)
	}
}

func prefer(nodes ...[]int) []TaskInfo {
	tasks := make([]TaskInfo, len(nodes))
	for i, n := range nodes {
		tasks[i] = TaskInfo{ID: i, PreferredNodes: n}
	}
	return tasks
}

// TestStageForcesStrandedPinnedTask: a task pinned to a node that dies
// before it launches can never be offered; once nothing else runs, is
// queued or timed — the lost node's zombie included — the machine
// forces it onto a survivor.
func TestStageForcesStrandedPinnedTask(t *testing.T) {
	r := newRig(t, NewPinned(), []int{1, 1}, 0, false, prefer([]int{0}, []int{0}))
	r.wantLaunches(placed{0, 0})
	r.start(0, 0)
	r.s.NodeLost(0)
	r.s.Dispatch(r.now)
	r.wantLaunches(placed{0, 0}, placed{0, 1}) // lost task 0 retried on the survivor
	r.start(0, 1)
	r.finish(0, 1, Success, 1)
	if len(r.launches) != 2 || slices.Contains(r.audits, "force-dispatch") {
		t.Fatalf("forced while the lost node's attempt was still in flight: %v %v", r.launches, r.audits)
	}
	if r.finish(0, 0, Success, 1) {
		t.Fatal("the lost node's zombie counted")
	}
	r.wantLaunches(placed{0, 0}, placed{0, 1}, placed{1, 1})
	if want := []string{"task-lost", "force-dispatch"}; !slices.Equal(r.audits, want) {
		t.Fatalf("audits %v, want %v", r.audits, want)
	}
	r.start(1, 1)
	if !r.finish(1, 1, Success, 1) || r.s.Remaining() != 0 || !r.s.Settled() {
		t.Fatalf("stage not settled: remaining %d", r.s.Remaining())
	}
}

// TestStageRetryHintTimer: a decline's retry hint becomes a timer of
// exactly that delay, and its tick re-offers every node, not only the
// one that asked.
func TestStageRetryHintTimer(t *testing.T) {
	const wait = 3.0
	r := newRig(t, NewDelay(wait), []int{1, 1, 1}, 0, false, prefer([]int{0}, []int{0}, []int{0}, []int{0}))
	r.wantLaunches(placed{0, 0})
	if want := []float64{wait, wait}; !slices.Equal(r.timers, want) {
		t.Fatalf("timers at %v, want %v (nodes 1 and 2 wait out the locality wait)", r.timers, want)
	}
	r.now = 2.5
	r.s.Dispatch(r.now) // a completion-driven pass before the wait ends
	r.wantLaunches(placed{0, 0})
	if got := r.timers[2:]; !slices.Equal(got, []float64{wait, wait}) {
		t.Fatalf("re-declines asked for ticks at %v, want %v", got, []float64{wait, wait})
	}
	r.tickFirst()
	r.wantLaunches(placed{0, 0}, placed{1, 1}, placed{2, 2})
	for len(r.timers) > 0 {
		r.tickFirst()
	}
	r.wantLaunches(placed{0, 0}, placed{1, 1}, placed{2, 2})
}

// TestStageZombieAfterLoss: a lost node's attempts are requeued at
// once; one that reaches its start after the loss does not run, and one
// that reports after its task was relaunched and settled elsewhere
// counts for nothing.
func TestStageZombieAfterLoss(t *testing.T) {
	r := newRig(t, NewFIFO(), []int{1, 1, 1}, 0, false, prefer(nil, nil, nil))
	r.wantLaunches(placed{0, 0}, placed{1, 1}, placed{2, 2})
	r.start(0, 0)
	r.start(2, 2)
	r.s.NodeLost(0)
	r.s.NodeLost(1) // task 1 was launched there, never started
	r.s.Dispatch(r.now)
	if _, ok := r.s.Started(1, 1, r.now); ok {
		t.Fatal("an attempt on a lost node started")
	}
	r.finish(2, 2, Success, 1)
	r.wantLaunches(placed{0, 0}, placed{1, 1}, placed{2, 2}, placed{0, 2})
	if attempt := r.start(0, 2); attempt != 1 {
		t.Fatalf("relaunch numbered attempt %d, want 1", attempt)
	}
	if !r.finish(0, 2, Success, 1) {
		t.Fatal("relaunch did not count")
	}
	if r.finish(0, 0, Success, 1) {
		t.Fatal("zombie completion counted")
	}
	r.wantLaunches(placed{0, 0}, placed{1, 1}, placed{2, 2}, placed{0, 2}, placed{1, 2})
	r.start(1, 2)
	r.finish(1, 2, Success, 1)
	if r.s.Remaining() != 0 || r.s.inFlight != 0 {
		t.Fatalf("remaining %d, in flight %d after every attempt reported", r.s.Remaining(), r.s.inFlight)
	}
}

// TestStageSpeculativeSiblingFails: a straggler gets one copy; when the
// original then fails, the task is not requeued behind the live copy,
// and the copy settles it without spending the stage.
func TestStageSpeculativeSiblingFails(t *testing.T) {
	r := newRig(t, NewFIFO(), []int{1, 1}, 0, true, prefer(nil, nil, nil, nil))
	r.start(0, 0)
	r.start(1, 1)
	r.now = 1
	r.finish(0, 0, Success, 1)
	r.start(2, 0)
	r.finish(1, 1, Success, 1)
	r.start(3, 1)
	r.now = 2
	r.finish(2, 0, Success, 1)
	r.wantLaunches(placed{0, 0}, placed{1, 1}, placed{2, 0}, placed{3, 1})
	r.now = 2.4 // task 3 has run 1.4 s, under 1.5 × the median
	r.s.Speculate(r.now)
	if r.s.Speculations() != 0 {
		t.Fatal("speculated below the threshold")
	}
	r.now = 2.6
	r.s.Speculate(r.now)
	r.wantLaunches(placed{0, 0}, placed{1, 1}, placed{2, 0}, placed{3, 1}, placed{3, 0})
	if attempt := r.start(3, 0); attempt != 1 {
		t.Fatalf("copy numbered attempt %d, want 1", attempt)
	}
	r.s.Speculate(r.now)
	if r.s.Speculations() != 1 {
		t.Fatalf("%d copies of one straggler", r.s.Speculations())
	}
	if !r.finish(3, 1, Failure, 1.6) {
		t.Fatal("the original's failure did not count")
	}
	if len(r.launches) != 5 || r.s.queued[3] {
		t.Fatalf("failure requeued behind a live copy: %v", r.launches)
	}
	if !r.finish(3, 0, Success, 0.1) || r.s.Remaining() != 0 || r.s.Err() != nil {
		t.Fatalf("copy did not settle the task: remaining %d, err %v", r.s.Remaining(), r.s.Err())
	}
}

// TestStageWindowTakesOnlyLocalWork: window slots are offered after
// every run slot and take only what OfferLocal gives — a node's window
// never steals a task another node owns.
func TestStageWindowTakesOnlyLocalWork(t *testing.T) {
	p := NewShuffleLocality(2, 0.25)
	r := newRig(t, p, []int{1, 1}, 1, false, prefer([]int{1}, []int{1}, []int{1}, []int{0}))
	// Run slots: node 0 its own task 3, node 1 its task 0. Windows:
	// node 1 its task 1; node 0 declines task 2, which node 1 owns.
	r.wantLaunches(placed{3, 0}, placed{0, 1}, placed{1, 1})
	r.start(3, 0)
	r.finish(3, 0, Success, 1)
	// Node 0's run slot is free again: Offer may steal, the window may not.
	r.wantLaunches(placed{3, 0}, placed{0, 1}, placed{1, 1}, placed{2, 0})
}

// TestStageCompletionDoesNotAllocate: the hot path — an attempt starts,
// succeeds, and the offer pass launches the next task — allocates
// nothing.
func TestStageCompletionDoesNotAllocate(t *testing.T) {
	const n = 1000
	var last placed
	s := NewStage(StageConfig{
		Name: "allocs", Policy: NewFIFO(), Slots: []int{1, 1}, MaxFailures: DefaultMaxFailures,
		Launch: func(d Decision, node int) { last = placed{d.TaskID, node} },
	}, n)
	s.Start(prefer(make([][]int, n)...), 0)
	allocs := testing.AllocsPerRun(n/2, func() {
		task, node := last.task, last.node
		s.Started(task, node, 1)
		s.Finished(task, node, 1, Success, TaskStats{Duration: 1}, nil)
		s.Dispatch(1)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per completion, want 0", allocs)
	}
}

// FuzzStageMachine drives a Stage with random event sequences — starts,
// successes, failures, losses, node kills delivered late, zombie
// reports, ticks and speculation scans — under every queue policy, and
// checks the machine's invariants after every event: in-flight never
// goes negative, no task is both queued and live unless speculated, a
// live node's slots are free or held by an attempt, and every task
// settles exactly once.
func FuzzStageMachine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{3, 9, 2, 7, 7, 7, 1, 1, 4, 4, 4, 6, 6, 6, 0, 5, 5, 8})
	f.Add([]byte{5, 17, 1, 200, 31, 64, 64, 64, 9, 9, 128, 255, 3, 3, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		nodes, tasks := 1+int(in[0]%4), 1+int(in[1]%12)
		policies := []func() Policy{
			func() Policy { return NewFIFO() },
			func() Policy { return NewLocalityPreferring() },
			func() Policy { return NewPinned() },
			func() Policy { return NewSpread(nodes) },
			func() Policy { return NewShuffleLocality(nodes, 0.25) },
			func() Policy { return NewDelay(0.5) },
			func() Policy { return NewCAD(NewFIFO()) },
		}
		policy := policies[int(in[2])%len(policies)]()
		window, speculate := int(in[3]>>3)&1, in[3]&16 != 0
		infos := make([]TaskInfo, tasks)
		for i := range infos {
			infos[i].ID = i
			if b := in[(4+i)%len(in)]; b%3 != 0 {
				infos[i].PreferredNodes = []int{int(b) % nodes}
			}
		}
		slots := make([]int, nodes)
		for i := range slots {
			slots[i] = 1 + i%2
		}

		type attempt struct {
			task, node int
			started    bool
		}
		var live []attempt
		var timers []float64
		now := 0.0
		dead := make([]bool, nodes)   // killed
		lost := make([]bool, nodes)   // loss delivered to the stage
		settles := make([]int, tasks) // counted successes, plus the give-up
		s := NewStage(StageConfig{
			Name: "fuzz", Policy: policy, Slots: slots, Window: window,
			MaxFailures: DefaultMaxFailures, Speculate: speculate,
			Launch: func(d Decision, node int) {
				if lost[node] {
					t.Fatalf("launched task %d on lost node %d", d.TaskID, node)
				}
				live = append(live, attempt{d.TaskID, node, false})
			},
			Timer: func(after float64) { timers = append(timers, now+after) },
		}, tasks)
		check := func(step int) {
			t.Helper()
			if s.inFlight < 0 || s.inFlight != len(live) {
				t.Fatalf("step %d: in flight %d, attempts outstanding %d", step, s.inFlight, len(live))
			}
			done := 0
			for id := range infos {
				if s.queued[id] && len(s.liveOn[id]) > 0 && !(s.speculated != nil && s.speculated[id]) {
					t.Fatalf("step %d: task %d queued and live on %v without speculation", step, id, s.liveOn[id])
				}
				if settles[id] > 1 {
					t.Fatalf("step %d: task %d settled %d times", step, id, settles[id])
				}
				if s.done[id] {
					done++
				}
			}
			if s.remaining != tasks-done {
				t.Fatalf("step %d: remaining %d with %d of %d tasks done", step, s.remaining, done, tasks)
			}
			for n, free := range s.idle {
				busy := 0
				for _, a := range live {
					if a.node == n {
						busy++
					}
				}
				if lost[n] && free != 0 || !dead[n] && free+busy != slots[n]+s.window {
					t.Fatalf("step %d: node %d (lost %v) has %d free slots and %d attempts", step, n, lost[n], free, busy)
				}
			}
		}
		report := func(i int, out Outcome) {
			a := live[i]
			live = slices.Delete(live, i, i+1)
			if dead[a.node] && !lost[a.node] {
				// The engine sees the death before the stage hears of
				// the loss; once it has, a zombie may report anything.
				out = Loss
			}
			var err error
			if out == Failure {
				err = errors.New("fuzz")
			}
			wasDone := s.done[a.task]
			if s.Finished(a.task, a.node, now, out, TaskStats{Duration: 0.1}, err) && !wasDone && s.done[a.task] {
				settles[a.task]++
			}
		}
		s.Start(infos, now)
		check(-1)
		for step, b := range in[4:] {
			now += 0.05
			pick := int(b >> 3)
			switch b % 8 {
			case 0, 1: // start an attempt
				for k := range live {
					if i := (pick + k) % len(live); !live[i].started {
						if dead[live[i].node] {
							report(i, Loss) // its executor died before it could start
						} else if _, ok := s.Started(live[i].task, live[i].node, now); ok {
							live[i].started = true
						} else {
							live = slices.Delete(live, i, i+1)
						}
						break
					}
				}
			case 2, 3: // a started attempt succeeds
				for k := range live {
					if i := (pick + k) % len(live); live[i].started {
						report(i, Success)
						break
					}
				}
			case 4: // a started attempt fails
				for k := range live {
					if i := (pick + k) % len(live); live[i].started {
						report(i, Failure)
						break
					}
				}
			case 5: // kill a node, leaving at least one; its loss arrives later
				if n := pick % nodes; !dead[n] && slices.Index(dead[n+1:], false)+slices.Index(dead[:n], false) > -2 {
					dead[n] = true
				}
			case 6: // deliver pending losses
				for n := range dead {
					if dead[n] && !lost[n] {
						lost[n] = true
						s.NodeLost(n)
					}
				}
			case 7: // a timer fires, or a speculation scan runs
				if len(timers) > 0 && pick%2 == 0 {
					timers = timers[1:]
					s.Tick(now)
				} else {
					s.Speculate(now)
				}
			}
			s.Dispatch(now)
			check(step)
		}
		// Drain: deliver every loss, then start and finish what remains.
		for n := range dead {
			if dead[n] && !lost[n] {
				lost[n] = true
				s.NodeLost(n)
			}
		}
		s.Dispatch(now)
		for rounds := 0; (len(live) > 0 || len(timers) > 0) && rounds < 10*tasks+100; rounds++ {
			now += 1
			if len(live) == 0 {
				timers = timers[1:]
				s.Tick(now)
			} else if _, ok := s.Started(live[0].task, live[0].node, now); ok {
				live[0].started = true
				report(0, Success)
			} else {
				live = live[1:]
			}
			s.Dispatch(now)
			check(-2)
		}
		if len(live) > 0 {
			t.Fatalf("drain did not finish: %d attempts left", len(live))
		}
		if !s.Settled() {
			t.Fatalf("stage not settled: remaining %d, err %v, timers %d", s.remaining, s.err, len(timers))
		}
		for id, n := range settles {
			if s.err == nil && n != 1 {
				t.Fatalf("task %d settled %d times (%s)", id, n, fmt.Sprint(settles))
			}
		}
	})
}
