package sched

import (
	"errors"
	"fmt"
	"math"
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
	attempt, _, ok := r.s.Started(task, node, r.now)
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
	counted, _ := r.s.Finished(task, node, r.now, out, TaskStats{Duration: dur}, err)
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

// TestStageRetryHintTimer: the declines' retry hints become one timer,
// at the deadline they asked for; a pass that re-declines before it
// fires asks for no other, and its tick re-offers every node, not only
// the one that asked.
func TestStageRetryHintTimer(t *testing.T) {
	const wait = 3.0
	r := newRig(t, NewDelay(wait), []int{1, 1, 1}, 0, false, prefer([]int{0}, []int{0}, []int{0}, []int{0}))
	r.wantLaunches(placed{0, 0})
	if want := []float64{wait}; !slices.Equal(r.timers, want) {
		t.Fatalf("timers at %v, want %v (nodes 1 and 2 wait out the locality wait on one timer)", r.timers, want)
	}
	r.now = 2.5
	r.s.Dispatch(r.now) // a completion-driven pass before the wait ends
	r.wantLaunches(placed{0, 0})
	if len(r.timers) != 1 {
		t.Fatalf("re-declines asked for ticks at %v besides the one held at %v", r.timers[1:], wait)
	}
	r.tickFirst()
	r.wantLaunches(placed{0, 0}, placed{1, 1}, placed{2, 2})
	for len(r.timers) > 0 {
		r.tickFirst()
	}
	r.wantLaunches(placed{0, 0}, placed{1, 1}, placed{2, 2})
}

// hinted declines every offer with its node's retry hint.
type hinted []float64

func (h hinted) StageStart([]TaskInfo, float64)         {}
func (h hinted) Offer(node int, _ float64) Decision     { return Decline(h[node]) }
func (h hinted) Completed(int, int, float64, TaskStats) {}
func (h hinted) Pending() int                           { return 1 }

// TestStageHoldsEarliestTimer: a hint due before the held timer asks for
// a new one, a hint due at or after it asks for none; the held timer's
// tick asks again for what is still wanted, and the tick of a superseded
// timer only runs a pass.
func TestStageHoldsEarliestTimer(t *testing.T) {
	r := newRig(t, hinted{5, 2, 7}, []int{1, 1, 1}, 0, false, prefer(nil))
	if want := []float64{5, 2}; !slices.Equal(r.timers, want) {
		t.Fatalf("timers at %v, want %v", r.timers, want)
	}
	r.tickFirst() // at 2, the held timer: hints now due at 7, 4 and 9
	if want := []float64{5, 7, 4}; !slices.Equal(r.timers, want) {
		t.Fatalf("timers at %v after the held tick, want %v", r.timers, want)
	}
	r.tickFirst() // at 4: due at 9, 6 and 11
	r.tickFirst() // at 5, superseded: 10, 7 and 12 are all after the held 6
	if want := []float64{7, 9, 6}; !slices.Equal(r.timers, want) {
		t.Fatalf("timers at %v after the superseded tick, want %v", r.timers, want)
	}
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
	if _, _, ok := r.s.Started(1, 1, r.now); ok {
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
	p := NewShuffleLocality(2)
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

// scripted is a fault plan that answers each query from a byte script:
// a hang, an injected failure or a count-triggered crash whenever the
// next byte says so.
type scripted struct {
	script      []byte
	next, nodes int
	completions int // TaskCompleted calls
}

func (f *scripted) byte() byte {
	f.next++
	return f.script[f.next%len(f.script)]
}

func (f *scripted) HangDuration(int, float64) float64 {
	if f.byte()%4 == 0 {
		return 0.1
	}
	return 0
}

func (f *scripted) TaskFailure(node, _ int, _ float64) error {
	if f.byte()%2 == 0 {
		return fmt.Errorf("injected on node %d", node)
	}
	return nil
}

func (f *scripted) TaskCompleted(float64) []int {
	f.completions++
	if b := f.byte(); b%5 == 0 {
		return []int{int(b/5) % f.nodes}
	}
	return nil
}

// FuzzStageMachine drives a Stage with random event sequences — starts,
// successes, failures, losses, node kills delivered late, zombie
// reports, ticks and speculation scans, and, with a fault plan, its
// hangs, injected failures and count-triggered crashes — under every
// queue policy, and checks the machine's invariants after every event:
// in-flight never goes negative, no task is both queued and live unless
// speculated, a live node's slots are free or held by an attempt, every
// task settles exactly once, the stage never asks for a timer at or
// after the deadline of the one it holds, no task absorbs more than
// MaxFailures-1 injected failures, and the plan hears of every counted
// success, and of nothing else, and crashes come back only from one.
func FuzzStageMachine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{3, 9, 2, 7, 7, 7, 1, 1, 4, 4, 4, 6, 6, 6, 0, 5, 5, 8})
	f.Add([]byte{5, 17, 1, 200, 31, 64, 64, 64, 9, 9, 128, 255, 3, 3, 3})
	f.Add([]byte{3, 7, 5, 32, 0, 2, 10, 3, 0, 0, 2, 2, 3, 6, 0, 2, 7, 7, 0, 3, 2, 15})
	f.Add([]byte{2, 11, 12, 48, 1, 0, 2, 2, 8, 3, 5, 0, 6, 2, 0, 3, 4, 15, 7, 0, 2, 10})
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
			func() Policy { return NewShuffleLocality(nodes) },
			func() Policy { return NewDelay(0.5) },
			func() Policy { return NewCAD(NewFIFO()) },
		}
		policy := policies[int(in[2])%len(policies)]()
		window, speculate := int(in[3]>>3)&1, in[3]&16 != 0
		var faults Injector
		plan := &scripted{script: in, nodes: nodes}
		if in[3]&32 != 0 {
			faults = plan
		}
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
		now, held := 0.0, math.Inf(1) // held: the deadline of the timer the stage holds
		dead := make([]bool, nodes)   // killed
		lost := make([]bool, nodes)   // loss delivered to the stage
		settles := make([]int, tasks) // counted successes, plus the give-up
		injected := make([]int, tasks)
		successes := 0 // counted
		s := NewStage(StageConfig{
			Name: "fuzz", Policy: policy, Slots: slots, Window: window,
			MaxFailures: DefaultMaxFailures, Speculate: speculate, Faults: faults,
			Launch: func(d Decision, node int) {
				if lost[node] {
					t.Fatalf("launched task %d on lost node %d", d.TaskID, node)
				}
				live = append(live, attempt{d.TaskID, node, false})
			},
			Timer: func(after float64) {
				if at := now + after; at >= held {
					t.Fatalf("asked for a timer at %v while holding one at %v", at, held)
				} else {
					held = at
					timers = append(timers, at)
				}
			},
		}, tasks)
		check := func(step int) {
			t.Helper()
			if s.inFlight < 0 || s.inFlight != len(live) {
				t.Fatalf("step %d: in flight %d, attempts outstanding %d", step, s.inFlight, len(live))
			}
			if faults != nil && plan.completions != successes {
				t.Fatalf("step %d: the plan heard of %d completions, %d successes counted", step, plan.completions, successes)
			}
			done := 0
			for id := range infos {
				if s.queued[id] && len(s.liveOn[id]) > 0 && !(s.speculated != nil && s.speculated[id]) {
					t.Fatalf("step %d: task %d queued and live on %v without speculation", step, id, s.liveOn[id])
				}
				if settles[id] > 1 {
					t.Fatalf("step %d: task %d settled %d times", step, id, settles[id])
				}
				if injected[id] > DefaultMaxFailures-1 {
					t.Fatalf("step %d: task %d absorbed %d injected failures", step, id, injected[id])
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
			counted, crashed := s.Finished(a.task, a.node, now, out, TaskStats{Duration: 0.1}, err)
			if counted && !wasDone && s.done[a.task] {
				settles[a.task]++
			}
			if counted && out == Success {
				successes++
			} else if len(crashed) > 0 {
				t.Fatalf("crashes %v from an attempt that counted %v with outcome %v", crashed, counted, out)
			}
			for _, n := range crashed {
				// Carried out before the next pass, sparing the last node.
				if !dead[n] && slices.Index(dead[n+1:], false)+slices.Index(dead[:n], false) > -2 {
					dead[n], lost[n] = true, true
					s.NodeLost(n)
				}
			}
		}
		tick := func() {
			i := slices.Index(timers, slices.Min(timers))
			now = max(now, timers[i])
			timers = slices.Delete(timers, i, i+1)
			if now >= held {
				held = math.Inf(1)
			}
			s.Tick(now)
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
						} else if _, hang, ok := s.Started(live[i].task, live[i].node, now); ok {
							if hang != 0 && faults == nil {
								t.Fatalf("a %v s hang without a plan", hang)
							}
							live[i].started = true
						} else {
							live = slices.Delete(live, i, i+1)
						}
						break
					}
				}
			case 2, 3: // a started attempt's body runs, unless the plan fails it, and succeeds
				for k := range live {
					if i := (pick + k) % len(live); live[i].started {
						a := live[i]
						out := Success
						if !dead[a.node] {
							if n, err := s.InjectedFailure(a.task, a.node, now); err != nil {
								injected[a.task]++
								if n != injected[a.task] {
									t.Fatalf("task %d: verdict counts %d injected failures, %d seen", a.task, n, injected[a.task])
								}
								out = Failure
							}
						}
						report(i, out)
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
			case 7: // the earliest timer fires, or a speculation scan runs
				if len(timers) > 0 && pick%2 == 0 {
					tick()
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
				tick()
			} else if _, _, ok := s.Started(live[0].task, live[0].node, now); ok {
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
