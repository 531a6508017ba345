// Package chaostest is the property-based chaos harness: it replays
// seeded fault plans against a backend — the simulator, the engine or
// dist — and judges each faulted run against a fault-free run of the
// same job on the same backend.
//
// Invariants checked on every trial:
//
//  1. the job completes, and its result equals the fault-free run's
//     (on engine and dist also dist.KeyedSumGolden, exactly);
//  2. no task is counted twice within one stage run — the
//     zombie-suppression contract of sched.Stage;
//  3. no counted task span ends on a node after its crash (work on a
//     dead node must never count);
//  4. metrics balance, as the backend's result defines it;
//  5. under ELB, no healthy (never-crashed) node is starved of map
//     tasks when the job has at least 4 tasks per node.
//
// Invariants 2, 3 and 5 read the run's trace, in the vocabulary every
// backend shares: a task span is counted work unless its detail says
// "failed" or "lost", and fault events are CatFault "fault:<kind>".
// A failing seed reproduces from the seed alone; Shrink reduces its
// plan to a locally minimal set of fault events that still violates.
package chaostest

import (
	"fmt"
	"sort"
	"strings"

	"hpcmr/fault"
	"hpcmr/trace"
)

// Backend runs the chaos job once under a fault plan.
type Backend interface {
	// Plan generates seed's plan, shaped to the backend's cluster and
	// job.
	Plan(seed int64) fault.Plan
	// Run runs the job under plan and returns its result, the tracer
	// holding its trace, and the error that failed the job; the result
	// counts only without an error.
	Run(plan fault.Plan) (Result, *trace.Tracer, error)
	// ELBNodes is how many nodes invariant 5 must see fed, or 0 when
	// it does not apply.
	ELBNodes() int
}

// Result is one run's result as its backend reports it.
type Result interface {
	// Diff lists how the result differs from the fault-free run's.
	Diff(golden Result) []string
	// Balance lists the run's metrics-balance breaches.
	Balance() []string
	// Summary describes a passing run against the fault-free one.
	Summary(golden Result) string
}

// Report is the outcome of one chaos trial.
type Report struct {
	Plan   fault.Plan
	Golden Result
	// Result is nil when the faulted job failed outright.
	Result Result
	// Events is the faulted run's full trace.
	Events []trace.Event
	// Violations lists every invariant breach; empty means the trial
	// passed.
	Violations []string
}

// Failed reports whether the trial violated any invariant.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Summary formats the trial outcome as one line.
func (r *Report) Summary() string {
	if !r.Failed() {
		return fmt.Sprintf("ok: %d events, %s", len(r.Plan.Events), r.Result.Summary(r.Golden))
	}
	return fmt.Sprintf("FAIL: %d events, %d violations: %s",
		len(r.Plan.Events), len(r.Violations), strings.Join(r.Violations, "; "))
}

// RunSeed generates the plan for seed and runs one trial with it.
func RunSeed(b Backend, seed int64) (*Report, error) {
	return RunPlan(b, b.Plan(seed))
}

// RunPlan runs the job fault-free and under plan on b and checks the
// invariants. The returned error covers only setup problems (invalid
// plan, failing fault-free run); job failures under faults are
// reported as violations.
func RunPlan(b Backend, plan fault.Plan) (*Report, error) {
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("chaostest: invalid plan: %w", err)
	}
	rep := &Report{Plan: plan}
	var err error
	if rep.Golden, _, err = b.Run(fault.Plan{}); err != nil {
		return nil, fmt.Errorf("chaostest: golden run failed: %w", err)
	}
	res, tr, err := b.Run(plan)
	rep.Events = tr.Events()
	if err == nil && tr.Drops() > 0 {
		err = fmt.Errorf("its trace overflowed by %d events", tr.Drops())
	}
	if err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("job failed under faults: %v", err))
		return rep, nil
	}
	rep.Result = res
	rep.Violations = append(rep.Violations, rep.Result.Diff(rep.Golden)...)
	crashes := map[int]float64{}
	for _, e := range rep.Events {
		if e.Cat == trace.CatFault && e.Name == "fault:crash" {
			crashes[e.Node] = e.TS
		}
	}
	tasks := countedTasks(rep.Events)
	rep.checkNoDuplicateCompletion(tasks)
	rep.checkNoWorkOnDeadNodes(tasks, crashes)
	rep.Violations = append(rep.Violations, rep.Result.Balance()...)
	rep.checkNoStarvation(tasks, b.ELBNodes(), crashes)
	return rep, nil
}

// countedTasks returns the trace's counted task spans, each with its
// Stage renamed to its stage run ("name#run"): a recovering driver
// re-runs a stage under the same name, and a task completes once per
// run. A span belongs to the latest run of its stage that started at or
// before it.
func countedTasks(events []trace.Event) []trace.Event {
	starts := map[string][]float64{}
	for _, e := range events {
		if e.Cat == trace.CatStage {
			name := strings.TrimSuffix(e.Name, " (failed)")
			starts[name] = append(starts[name], e.TS)
		}
	}
	for _, s := range starts {
		sort.Float64s(s)
	}
	var tasks []trace.Event
	for _, e := range events {
		if e.Cat != trace.CatTask || e.Detail == "failed" || e.Detail == "lost" {
			continue
		}
		run := sort.Search(len(starts[e.Stage]), func(i int) bool { return starts[e.Stage][i] > e.TS })
		e.Stage = fmt.Sprintf("%s#%d", e.Stage, run)
		tasks = append(tasks, e)
	}
	return tasks
}

// Invariant 2: each task of a stage run is counted once.
func (r *Report) checkNoDuplicateCompletion(tasks []trace.Event) {
	seen := map[string]int{}
	for _, e := range tasks {
		seen[fmt.Sprintf("%s/%d", e.Stage, e.Task)]++
	}
	var dups []string
	for key, n := range seen {
		if n > 1 {
			dups = append(dups, fmt.Sprintf("%s x%d", key, n))
		}
	}
	if len(dups) > 0 {
		sort.Strings(dups)
		r.Violations = append(r.Violations, "tasks completed more than once: "+strings.Join(dups, ", "))
	}
}

// Invariant 3: no counted task span extends past the crash of its node.
func (r *Report) checkNoWorkOnDeadNodes(tasks []trace.Event, crashes map[int]float64) {
	for _, e := range tasks {
		crash, crashed := crashes[e.Node]
		if crashed && e.End() > crash+1e-9 {
			r.Violations = append(r.Violations, fmt.Sprintf(
				"task %s/%d recorded on node %d past its crash at %.3fs (span end %.3fs)",
				e.Stage, e.Task, e.Node, crash, e.End()))
		}
	}
}

// Invariant 5: every one of the nodes ELB must feed that was never
// crashed runs at least one map task — the load balancer must not
// starve healthy nodes while routing around dead ones.
func (r *Report) checkNoStarvation(tasks []trace.Event, nodes int, crashes map[int]float64) {
	ran := make([]bool, nodes)
	for _, e := range tasks {
		if strings.HasPrefix(e.Stage, "map/") && e.Node >= 0 && e.Node < nodes {
			ran[e.Node] = true
		}
	}
	for node, ok := range ran {
		if _, crashed := crashes[node]; !ok && !crashed {
			r.Violations = append(r.Violations, fmt.Sprintf(
				"healthy node %d ran no map tasks (ELB starvation)", node))
		}
	}
}

// Shrink greedily minimizes a failing plan: while removing any single
// event still reproduces a violation on b, remove it. The result is
// locally minimal — every remaining event is necessary for the failure.
func Shrink(b Backend, plan fault.Plan) (fault.Plan, error) {
	for {
		removed := false
		for i := 0; i < len(plan.Events); i++ {
			cand := fault.Plan{Seed: plan.Seed}
			cand.Events = append(cand.Events, plan.Events[:i]...)
			cand.Events = append(cand.Events, plan.Events[i+1:]...)
			rep, err := RunPlan(b, cand)
			if err != nil {
				return plan, err
			}
			if rep.Failed() {
				plan = cand
				removed = true
				break
			}
		}
		if !removed {
			return plan, nil
		}
	}
}
