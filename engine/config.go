// Package engine is the execution runtime of the real (non-simulated)
// memory-resident MapReduce library: a local multi-executor pool that
// runs stages of tasks under a pluggable scheduling policy, with task
// retry, an in-memory shuffle store, and per-stage metrics.
//
// The runtime mirrors Spark's executor model at process scale: N
// executors with C cores each, a centralized scheduler offering free
// slots to a placement policy (FIFO, locality-preferring, delay
// scheduling, ELB, or CAD-throttled), and a shuffle service connecting
// map-side output to reduce-side fetch. The rdd package compiles RDD
// lineage into stages and runs them here.
package engine

import (
	"fmt"
	"runtime"

	"hpcmr/internal/sched"
)

// PolicyKind selects the task-placement policy.
type PolicyKind int

// Available scheduling policies.
const (
	// FIFO launches tasks in order on any free slot (the paper's
	// recommendation for compute-centric systems).
	FIFO PolicyKind = iota
	// Locality prefers slot-local tasks but never waits.
	Locality
	// DelayScheduling waits up to LocalityWait for a local slot
	// (Spark's default, shown harmful on HPC).
	DelayScheduling
	// ELB is the paper's Enhanced Load Balancer.
	ELB
	// CADThrottled paces dispatch with Congestion-Aware Dispatching
	// over a FIFO base.
	CADThrottled
	// ShuffleLocality composes no-wait shuffle locality with the ELB
	// imbalance rule: a slot first takes a task preferring its node
	// (the co-located zero-copy shuffle path), but a node over the ELB
	// threshold is paused even for its local work. Task preferences
	// come from Runtime.ReducePreferences.
	ShuffleLocality
)

func (k PolicyKind) String() string {
	switch k {
	case Locality:
		return "locality"
	case DelayScheduling:
		return "delay"
	case ELB:
		return "elb"
	case CADThrottled:
		return "cad"
	case ShuffleLocality:
		return "shuffle-locality"
	default:
		return "fifo"
	}
}

// Config parameterizes a Runtime.
type Config struct {
	// Executors is the number of simulated worker processes; 0 uses
	// GOMAXPROCS.
	Executors int
	// CoresPerExecutor is the task slots per executor; 0 means 1.
	CoresPerExecutor int
	// Policy selects task placement.
	Policy PolicyKind
	// LocalityWaitSeconds is the delay-scheduling wait (default 3 s,
	// Spark's spark.locality.wait).
	LocalityWaitSeconds float64
	// ELBThreshold is the load-balancer pause threshold (default 0.25).
	ELBThreshold float64
	// MaxTaskFailures is how many attempts a task gets before the stage
	// fails (default 4, as in Spark).
	MaxTaskFailures int
	// Speculation enables speculative re-execution of stragglers (the
	// LATE/Mantri family the paper's related work discusses): once
	// SpeculationQuantile of a stage's tasks have completed, a task
	// running longer than SpeculationMultiplier times the median
	// completed duration gets a second copy on another slot; the first
	// finisher wins.
	Speculation bool
	// SpeculationQuantile is the completed fraction required before
	// speculation starts (default 0.75).
	SpeculationQuantile float64
	// SpeculationMultiplier is the straggler threshold over the median
	// completed task duration (default 1.5).
	SpeculationMultiplier float64
	// SpeculationIntervalSeconds is the straggler-check period
	// (default 0.05 s).
	SpeculationIntervalSeconds float64
	// SchedAudit, when set, receives scheduler decision events (ELB
	// pause/resume, CAD throttle adjustments, delay-scheduling waits)
	// from every stage's policy, plus the runtime's fault/recovery
	// decisions (Policy "fault": executor crashes, lost attempts,
	// requeues, fetch retries) — the hook the trace subsystem uses for
	// its decision audit. Callbacks run under the stage dispatcher and
	// must be cheap.
	SchedAudit sched.AuditFunc
	// Faults, when set, is consulted at every fault-injection decision
	// point (task launch, fetch attempt, task completion, and a
	// periodic crash-trigger check). Pass a *fault.Injector to replay a
	// deterministic fault plan against the runtime.
	Faults FaultInjector
	// FaultCheckIntervalSeconds is the period of the time-based
	// crash-trigger poll while a stage runs (default 0.01 s).
	FaultCheckIntervalSeconds float64
	// MaxFetchRetries is how many attempts FetchShuffleChunks makes against
	// transient fetch faults before giving up (default 3).
	MaxFetchRetries int
	// FetchRetryBackoffSeconds is FetchShuffleChunks' initial retry backoff;
	// it doubles per attempt (default 0.002 s).
	FetchRetryBackoffSeconds float64
	// RunQueueDepth bounds each executor's persistent-worker run queue
	// (default 2 x CoresPerExecutor). Dispatch never blocks on a full
	// queue; overflow attempts fall back to a dedicated goroutine, so
	// the depth only tunes how much goroutine-spawn traffic the workers
	// absorb under concurrent stages.
	RunQueueDepth int
	// MemoryBudget caps the accounted resident bytes of shuffle output
	// and cached partitions, in bytes; 0 means unbounded (everything
	// stays in RAM, the pre-budget behavior). Over budget, the runtime
	// evicts least-recently-used chunk lists into spill files under
	// SpillDir and reads them back transparently on fetch — the paper's
	// RAMDisk→SSD step of the storage hierarchy.
	MemoryBudget int64
	// SpillDir is where evicted chunk lists land when MemoryBudget is
	// set. Empty means a runtime-owned temporary directory, removed on
	// Close; a caller-provided directory is created but left in place.
	SpillDir string
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Executors <= 0 {
		c.Executors = runtime.GOMAXPROCS(0)
	}
	if c.CoresPerExecutor <= 0 {
		c.CoresPerExecutor = 1
	}
	if c.LocalityWaitSeconds <= 0 {
		c.LocalityWaitSeconds = 3
	}
	if c.ELBThreshold <= 0 {
		c.ELBThreshold = 0.25
	}
	if c.MaxTaskFailures <= 0 {
		c.MaxTaskFailures = 4
	}
	if c.SpeculationQuantile <= 0 || c.SpeculationQuantile > 1 {
		c.SpeculationQuantile = 0.75
	}
	if c.SpeculationMultiplier <= 1 {
		c.SpeculationMultiplier = 1.5
	}
	if c.SpeculationIntervalSeconds <= 0 {
		c.SpeculationIntervalSeconds = 0.05
	}
	if c.FaultCheckIntervalSeconds <= 0 {
		c.FaultCheckIntervalSeconds = 0.01
	}
	if c.MaxFetchRetries <= 0 {
		c.MaxFetchRetries = 3
	}
	if c.FetchRetryBackoffSeconds <= 0 {
		c.FetchRetryBackoffSeconds = 0.002
	}
	if c.RunQueueDepth <= 0 {
		c.RunQueueDepth = 2 * c.CoresPerExecutor
	}
	return c
}

// newPolicy instantiates the configured policy for one stage.
func (c Config) newPolicy() sched.Policy {
	switch c.Policy {
	case Locality:
		return sched.NewLocalityPreferring()
	case DelayScheduling:
		p := sched.NewDelay(c.LocalityWaitSeconds)
		p.Audit = c.SchedAudit
		return p
	case ELB:
		p := sched.NewELB(c.Executors, c.ELBThreshold)
		p.Audit = c.SchedAudit
		return p
	case CADThrottled:
		p := sched.NewCAD(sched.NewFIFO())
		p.Audit = c.SchedAudit
		return p
	case ShuffleLocality:
		p := sched.NewShuffleLocality(c.Executors, c.ELBThreshold)
		p.Audit = c.SchedAudit
		return p
	default:
		return sched.NewFIFO()
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Executors < 0 || c.CoresPerExecutor < 0 {
		return fmt.Errorf("engine: negative executor configuration")
	}
	if c.MemoryBudget < 0 {
		return fmt.Errorf("engine: negative memory budget %d", c.MemoryBudget)
	}
	return nil
}
