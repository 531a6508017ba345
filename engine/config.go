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
	"time"

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
	// DelayScheduling waits up to sched.SparkLocalityWait for a local
	// slot (Spark's default, shown harmful on HPC).
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

// FetchAttempts is how many attempts RetryFetch makes against transient
// shuffle-fetch faults, in the local runtime and in dist's executors
// alike.
const FetchAttempts = 3

// Fixed runtime settings: one value serves every caller.
const (
	// speculationInterval is how often a speculating stage looks for
	// stragglers (sched.Stage.Speculate).
	speculationInterval = 50 * time.Millisecond
	// faultCheckInterval is the period of the time-based crash-trigger
	// poll while a stage runs under a fault injector.
	faultCheckInterval = 10 * time.Millisecond
	// fetchRetryBackoff is RetryFetch's first backoff; it doubles per
	// attempt.
	fetchRetryBackoff = 2 * time.Millisecond
	// runQueuePerSlot sizes each executor's persistent-worker run queue
	// (runQueuePerSlot x its slots). Dispatch never blocks on a
	// full queue; overflow attempts fall back to a dedicated goroutine,
	// so the depth only sets how much goroutine-spawn traffic the
	// workers absorb under concurrent stages.
	runQueuePerSlot = 2
	// windowPerCore is how many attempts each core of an executor keeps
	// dispatched when task bodies are remote (Config.RemoteBodies): one
	// running and the rest queued behind it on the executor, so the core
	// starts its next task while the last one's result and the driver's
	// next dispatch are still on the wire.
	windowPerCore = 4
)

// Config parameterizes a Runtime.
type Config struct {
	// Executors is the number of simulated worker processes; 0 uses
	// GOMAXPROCS.
	Executors int
	// CoresPerExecutor is the task slots per executor; 0 means 1.
	CoresPerExecutor int
	// Policy selects task placement.
	Policy PolicyKind
	// MaxTaskFailures is how many attempts a task gets before the stage
	// fails (default 4, as in Spark).
	MaxTaskFailures int
	// Speculation enables speculative re-execution of stragglers (the
	// LATE/Mantri family the paper's related work discusses): once 75 %
	// of a stage's tasks have completed, a task running longer than
	// sched.SpeculationMultiplier times the median completed duration
	// gets a second copy on another slot; the first finisher wins.
	Speculation bool
	// Faults, when set, replays a deterministic fault plan against the
	// runtime (pass a *fault.Injector). Each stage's dispatcher takes
	// hangs, injected failures and count-triggered crashes from it; the
	// runtime asks it for slowdowns, fetch losses and, periodically,
	// time-triggered crashes. A task absorbs at most MaxTaskFailures-1
	// injected failures.
	Faults FaultInjector
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
	// RemoteBodies says every TaskSpec.Run hands its attempt to another
	// process and waits for the answer, as the dist driver's proxies
	// do. Each executor then has windowPerCore slots per core: the first
	// CoresPerExecutor are run slots, offered to the policy as usual;
	// the rest are window slots, whose attempts queue on the executor
	// and which take only work sched.LocalOfferer.OfferLocal returns —
	// local or preference-free, never stolen.
	RemoteBodies bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Executors <= 0 {
		c.Executors = runtime.GOMAXPROCS(0)
	}
	if c.CoresPerExecutor <= 0 {
		c.CoresPerExecutor = 1
	}
	if c.MaxTaskFailures <= 0 {
		c.MaxTaskFailures = sched.DefaultMaxFailures
	}
	return c
}

// newPolicy instantiates the configured policy for one stage, reporting
// its decisions to audit.
func (c Config) newPolicy(audit sched.AuditFunc) sched.Policy {
	switch c.Policy {
	case Locality:
		return sched.NewLocalityPreferring()
	case DelayScheduling:
		p := sched.NewDelay(sched.SparkLocalityWait)
		p.Audit = audit
		return p
	case ELB:
		p := sched.NewELB(c.Executors, sched.ELBThreshold)
		p.Audit = audit
		return p
	case CADThrottled:
		p := sched.NewCAD(sched.NewFIFO())
		p.Audit = audit
		return p
	case ShuffleLocality:
		p := sched.NewShuffleLocality(c.Executors)
		p.Audit = audit
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
