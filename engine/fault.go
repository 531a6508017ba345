package engine

import (
	"errors"
	"fmt"

	"hpcmr/internal/sched"
)

// FaultInjector is the engine's view of a deterministic fault source
// (satisfied by *fault.Injector). now is seconds since the runtime was
// built. Each stage's sched.Stage consults the sched.Injector part: a
// launch's hang, an attempt's injected failure, and the count-triggered
// crashes a completion fires. The runtime consults the rest itself: the
// slowdown of a finished attempt, every shuffle fetch attempt (loss),
// and a periodic timer (time-triggered crashes).
//
// Because the engine's shuffle store is a single in-process service
// rather than per-node servers, fetch faults are keyed by the fetching
// executor.
type FaultInjector interface {
	sched.Injector
	// TimeCrashes returns executors newly crashed by time triggers.
	TimeCrashes(now float64) []int
	// SlowFactor returns the executor's slowdown divisor (1 = healthy).
	SlowFactor(node int, now float64) float64
	// FetchFailure returns an injected error for a fetch attempt, or nil.
	FetchFailure(node int, now float64) error
}

// ErrExecutorLost rejects shuffle writes from executors that have been
// failed: a write that raced the loss must not resurrect invalidated
// output.
var ErrExecutorLost = errors.New("engine: executor lost")

// MapOutputMissingError reports a shuffle fetch that found a map
// partition unmaterialized — either the producing stage never ran
// (ordering bug) or the partition was invalidated when its executor was
// lost. The rdd layer recovers from it by re-executing the missing map
// partitions through lineage.
type MapOutputMissingError struct {
	// Shuffle is the engine shuffle ID.
	Shuffle int
	// MapPart is the first missing map partition observed.
	MapPart int
}

func (e *MapOutputMissingError) Error() string {
	return fmt.Sprintf("engine: shuffle %d: map partition %d not materialized", e.Shuffle, e.MapPart)
}
