package fault

import (
	"fmt"
	"sort"
	"sync"
)

// InjectedError marks a failure produced by the injector, so recovery
// paths (and tests) can tell injected faults from organic bugs.
type InjectedError struct {
	// Kind is the fault kind that produced the error.
	Kind Kind
	// Node is the faulted node.
	Node int
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected %s on node %d", e.Kind, e.Node)
}

// Injector replays one Plan as a sequence of deterministic answers to
// backend queries. Every backend's stage dispatcher (sched.Stage) asks
// it for a launch's hang, an attempt's injected failure and a
// completion's crashes; the backend itself asks for slowdowns, fetch
// losses and time-triggered crashes. Both backends query at the same
// decision points, so a plan produces the same fault sequence wherever
// it runs. One Injector replays one run; build
// a fresh Injector (or call Reset) for every replay.
//
// All methods are safe for concurrent use: the real engine queries from
// executor goroutines, the simulator single-threaded.
type Injector struct {
	mu   sync.Mutex
	plan Plan

	tasksDone int
	crashed   map[int]bool // node -> crash already triggered
	budgets   []int        // remaining operation budget per plan event
}

// NewInjector builds an injector over plan. The plan is not validated
// here; call Plan.Validate first for untrusted input.
func NewInjector(plan Plan) *Injector {
	in := &Injector{plan: plan}
	in.Reset()
	return in
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// Reset rewinds all replay state so the same plan can run again.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.tasksDone = 0
	in.crashed = make(map[int]bool)
	in.budgets = make([]int, len(in.plan.Events))
	for i, e := range in.plan.Events {
		in.budgets[i] = e.budget()
	}
}

// CrashTimes returns the plan's time-based crash triggers (see
// Plan.CrashTimes); the simulator schedules a visit at each.
func (in *Injector) CrashTimes() []float64 { return in.plan.CrashTimes() }

// TimeCrashes triggers every time-based crash due by now and returns
// the newly-down nodes, ascending.
func (in *Injector) TimeCrashes(now float64) []int {
	in.mu.Lock()
	defer in.mu.Unlock()
	var newly []int
	for _, e := range in.plan.Events {
		if e.Kind != KindCrash || e.AfterTasks > 0 || now < e.At || in.crashed[e.Node] {
			continue
		}
		in.crashed[e.Node] = true
		newly = append(newly, e.Node)
	}
	sort.Ints(newly)
	return newly
}

// TaskCompleted advances the global completed-task counter and returns
// nodes newly crashed by count triggers, ascending. A stage calls it
// once per counted successful completion.
func (in *Injector) TaskCompleted(now float64) []int {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.tasksDone++
	var newly []int
	for _, e := range in.plan.Events {
		if e.Kind != KindCrash || e.AfterTasks == 0 || in.tasksDone < e.AfterTasks || in.crashed[e.Node] {
			continue
		}
		in.crashed[e.Node] = true
		newly = append(newly, e.Node)
	}
	sort.Ints(newly)
	return newly
}

// SlowFactor returns the node's compound slowdown divisor at now: 1
// when healthy, the product of all active slow windows otherwise.
func (in *Injector) SlowFactor(node int, now float64) float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	f := 1.0
	for _, e := range in.plan.Events {
		if e.Kind == KindSlow && e.Node == node && now >= e.At && now < e.At+e.Duration {
			f *= e.Factor
		}
	}
	return f
}

// HangDuration consumes one hang budget unit armed for node and returns
// the stall in seconds, or 0. A stage calls it once per started attempt.
func (in *Injector) HangDuration(node int, now float64) float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, e := range in.plan.Events {
		if e.Kind == KindHang && e.Node == node && now >= e.At && in.budgets[i] > 0 {
			in.budgets[i]--
			return e.Duration
		}
	}
	return 0
}

// TaskFailure consumes one task-fail budget unit armed for node and
// returns the injected error, or nil. A stage calls it once per attempt
// whose body is about to run, while the task is under its cap; the task
// index is part of the signature for symmetry and audit detail only.
func (in *Injector) TaskFailure(node, task int, now float64) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, e := range in.plan.Events {
		if e.Kind == KindTaskFail && e.Node == node && now >= e.At && in.budgets[i] > 0 {
			in.budgets[i]--
			return &InjectedError{Kind: KindTaskFail, Node: node}
		}
	}
	return nil
}

// FetchFailure consumes one fetch-loss budget unit armed for the source
// node and returns the injected error, or nil. Backends call it once
// per shuffle fetch attempt against that source.
func (in *Injector) FetchFailure(node int, now float64) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, e := range in.plan.Events {
		if e.Kind == KindFetchLoss && e.Node == node && now >= e.At && in.budgets[i] > 0 {
			in.budgets[i]--
			return &InjectedError{Kind: KindFetchLoss, Node: node}
		}
	}
	return nil
}
