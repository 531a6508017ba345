package rdd

import (
	"errors"
	"fmt"
	"sync"

	"hpcmr/engine"
)

// fullyCached reports whether every partition of n is already resident,
// in which case its lineage does not need to run.
func (n *node) fullyCached() bool {
	n.cacheMu.Lock()
	defer n.cacheMu.Unlock()
	for i := range n.cache {
		if !n.cache[i].Held() {
			return false
		}
	}
	return n.cache != nil
}

// collectDeps gathers the shuffle dependencies reachable from n that
// are not complete, parents first, and descends only through those: a
// complete shuffle is a boundary, so a loss behind it recomputes
// nothing. A dependency not yet registered (engineID 0) is never
// complete.
func (c *Context) collectDeps(n *node, seen map[*shuffleDep]bool, out *[]*shuffleDep) {
	if n.fullyCached() {
		return
	}
	for _, p := range n.parents {
		c.collectDeps(p, seen, out)
	}
	for _, d := range n.deps {
		if seen[d] || d.engineID != 0 && c.rt.Shuffle().Complete(d.engineID) {
			continue
		}
		seen[d] = true
		c.collectDeps(d.parent, seen, out)
		*out = append(*out, d)
	}
}

// runMaps runs the map stage of one shuffle dependency over the
// partitions it lacks. A dependency not yet registered is registered
// and runs every partition; a registered one — its outputs lost with
// their executors, or its first stage ended by a miss upstream —
// re-executes only its missing partitions from lineage. Map output is
// written with PutChunksFrom so the store records which executor owns
// each partition, the provenance executor-loss invalidation keys on.
func (c *Context) runMaps(d *shuffleDep) error {
	store := c.rt.Shuffle()
	var name string
	var parts []int
	if d.engineID == 0 {
		d.engineID = store.Register(d.parent.parts, d.reduceParts)
		name = fmt.Sprintf("shufflemap-%d", d.engineID)
		parts = make([]int, d.parent.parts)
		for p := range parts {
			parts[p] = p
		}
	} else {
		name = fmt.Sprintf("shufflemap-%d-recovery", d.engineID)
		parts = store.MissingParts(d.engineID)
		c.rt.AuditRecovery("lineage-recompute", -1, float64(len(parts)),
			fmt.Sprintf("shuffle=%d missing=%v", d.engineID, parts))
	}
	parent, id := d.parent, d.engineID
	tasks := make([]engine.TaskSpec, len(parts))
	for i, p := range parts {
		if parent.preferred != nil {
			tasks[i].Preferred = parent.preferred(p)
		}
		tasks[i].Run = func(tc *engine.TaskContext) error {
			var chunks []any
			if err := parent.iterate(p, tc, func(ch any) { chunks = append(chunks, ch) }); err != nil {
				return err
			}
			buckets, records, bytes := d.write(chunks)
			// The writer's volume feeds the load balancer and the
			// runtime's shuffle-movement metrics.
			tc.AddShuffleRecords(int64(records))
			tc.AddShuffleBytes(float64(bytes))
			return store.PutChunksFrom(id, p, tc.Executor, buckets)
		}
	}
	return c.rt.RunStage(name, tasks)
}

// runJob runs the shuffles n's lineage lacks and then the result
// stage, delivering each partition's chunks to gather (called from the
// driver goroutine, in partition order; chunk contract as in chunk.go).
// A stage that reports a missing map output — a shuffle whose outputs
// went down with their executor — makes the walk plan again and
// resume: the next pass re-executes the lost partitions from lineage
// and runs the stage again, at most engine.MaxJobRecoveries times a
// job.
func (n *node) runJob(name string, gather func(part int, chunks []any) error) error {
	c := n.ctx
	c.mu.Lock()
	defer c.mu.Unlock()

	// resMu orders result writes against the driver's read: duplicate
	// attempts of one task (speculation, or a zombie attempt outliving
	// its failed executor) may both deliver, and the late delivery must
	// neither race the winner nor the gather below.
	var resMu sync.Mutex
	results := make([][]any, n.parts)
	for recoveries := 0; ; recoveries++ {
		err := n.runPass(name, func(p int, chunks []any) {
			resMu.Lock()
			results[p] = chunks
			resMu.Unlock()
		})
		if err == nil {
			break
		}
		var miss *engine.MapOutputMissingError
		if !errors.As(err, &miss) {
			return err
		}
		if recoveries == engine.MaxJobRecoveries {
			return fmt.Errorf("rdd: job %s still missing map output after %d lineage repairs (engine.MaxJobRecoveries): %w", name, engine.MaxJobRecoveries, err)
		}
	}
	resMu.Lock()
	final := make([][]any, n.parts)
	copy(final, results)
	resMu.Unlock()
	for p, vals := range final {
		if err := gather(p, vals); err != nil {
			return err
		}
	}
	return nil
}

// runPass is one pass of runJob's walk: every shuffle that is not
// complete, parents first, then the result stage, whose tasks hand each
// partition's chunks to deliver. The result tasks are built only after
// the shuffles have run, since a shuffled node's preferred locations
// resolve once, from the map outputs present (shufflePrefs).
func (n *node) runPass(name string, deliver func(part int, chunks []any)) error {
	c := n.ctx
	var deps []*shuffleDep
	c.collectDeps(n, map[*shuffleDep]bool{}, &deps)
	for _, d := range deps {
		if err := c.runMaps(d); err != nil {
			return err
		}
	}
	tasks := make([]engine.TaskSpec, n.parts)
	for p := range tasks {
		if n.preferred != nil {
			tasks[p].Preferred = n.preferred(p)
		}
		tasks[p].Run = func(tc *engine.TaskContext) error {
			var chunks []any
			if err := n.iterate(p, tc, func(ch any) { chunks = append(chunks, ch) }); err != nil {
				return err
			}
			deliver(p, chunks)
			return nil
		}
	}
	return c.rt.RunStage(name, tasks)
}
