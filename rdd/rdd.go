// Package rdd is a memory-resident Resilient Distributed Dataset library
// in the style of Spark (Zaharia et al., NSDI'12), executing on the
// local multi-executor runtime of package engine.
//
// An RDD is a lazily evaluated, partitioned collection with a lineage of
// narrow transformations (Map, FlatMap, Filter, MapValues) pipelined
// inside stages, and shuffle transformations (GroupByKey, ReduceByKey,
// Join, Distinct) that split the job into stages connected through an
// in-memory shuffle. Actions (Collect, Count, Reduce, Sum, CollectAsMap)
// trigger execution: parent shuffle stages run first, in dependency
// order, then the result stage computes the action.
//
// Cache() keeps computed partitions in memory across jobs — the
// memory-resident feature that makes iterative workloads (logistic
// regression, k-means) fast.
//
// The package is safe for use from a single driver goroutine; jobs are
// internally serialized per Context.
package rdd

import (
	"hash/maphash"
	"sync"

	"hpcmr/engine"
	"hpcmr/internal/spill"
)

// Options tunes a Context's execution strategy.
type Options struct {
	// DisableMapSideCombine turns off the hash-aggregating map-side
	// combine pass of ReduceByKey, shipping one shuffle record per input
	// pair instead of one per distinct key. Results are identical either
	// way; the switch exists for equivalence tests and for perf A/B
	// scenarios that measure what the combiner saves.
	DisableMapSideCombine bool
}

// Context owns a runtime and the lineage graph built on it.
type Context struct {
	rt   *engine.Runtime
	seed maphash.Seed
	opts Options

	mu     sync.Mutex // serializes jobs and ID allocation
	nextID int

	depMu          sync.Mutex // guards the recovery registry
	depsByEngineID map[int]*shuffleDep
}

// NewContext starts a context over a fresh runtime.
func NewContext(cfg engine.Config) (*Context, error) {
	return NewContextWithOptions(cfg, Options{})
}

// NewContextWithOptions starts a context over a fresh runtime with
// explicit execution options.
func NewContextWithOptions(cfg engine.Config, opts Options) (*Context, error) {
	rt, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Context{rt: rt, seed: maphash.MakeSeed(), opts: opts}, nil
}

// Runtime exposes the underlying engine (metrics, configuration).
func (c *Context) Runtime() *engine.Runtime { return c.rt }

// Stop shuts the context down; subsequent actions fail.
func (c *Context) Stop() { c.rt.Close() }

// executors returns the runtime's executor count.
func (c *Context) executors() int { return c.rt.Config().Executors }

func (c *Context) newID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

// shuffleDep connects a map-side node to a shuffled node.
type shuffleDep struct {
	parent      *node
	reduceParts int
	// write partitions one map partition's chunks into exactly
	// reduceParts bucket chunks (nil where empty; applying map-side
	// combining when the operation supports it), also reporting how many
	// records it bucketed and their approximate in-memory bytes — the
	// shuffle-volume accounting the task context and load balancer feed
	// on.
	write func(chunks []any) (buckets []any, records int, bytes int64)

	mu           sync.Mutex
	engineID     int
	materialized bool
}

// node is the untyped plan node beneath every RDD.
type node struct {
	ctx     *Context
	id      int
	parts   int
	parents []*node       // narrow dependencies
	deps    []*shuffleDep // shuffle dependencies feeding this node
	// compute produces partition part as chunks into sink: each sunk
	// value is a []T boxed once (see chunk.go for the chunk contract).
	compute func(part int, tc *engine.TaskContext, sink func(chunk any)) error
	// preferred lists executor IDs holding partition part (may be nil).
	preferred func(part int) []int

	// cache, while the RDD is cached, holds each partition's chunk list
	// in a block of the runtime's tier, so on a budgeted runtime cached
	// partitions spill alongside shuffle output.
	cacheMu sync.Mutex
	cache   []spill.Block
}

// RDD is a typed, lazily evaluated partitioned collection.
type RDD[T any] struct {
	n *node
}

// Cache marks the RDD memory-resident: each partition is kept after its
// first computation and reused by later jobs. Returns the receiver.
func (r *RDD[T]) Cache() *RDD[T] {
	n := r.n
	n.cacheMu.Lock()
	if n.cache == nil {
		n.cache = n.ctx.rt.Tier().Blocks("cache", n.id, n.parts)
	}
	n.cacheMu.Unlock()
	return r
}

// iterate produces partition part's chunks, serving and populating the
// cache. Cached chunks are re-sunk as stored — chunk immutability makes
// the aliasing safe; a spilled partition is read back from its spill
// file, which stays on disk, and one whose file fails to read is
// recomputed — the cache's lineage fallback.
func (n *node) iterate(part int, tc *engine.TaskContext, sink func(chunk any)) error {
	n.cacheMu.Lock()
	cache := n.cache
	n.cacheMu.Unlock()
	if cache == nil {
		return n.compute(part, tc, sink)
	}
	if chunks, ok := cache[part].ReadAll(); ok {
		for _, ch := range chunks {
			sink(ch)
		}
		return nil
	}
	var buf []any
	if err := n.compute(part, tc, func(ch any) {
		buf = append(buf, ch)
		sink(ch)
	}); err != nil {
		return err
	}
	n.cacheMu.Lock()
	if n.cache != nil && !n.cache[part].Held() {
		n.cache[part].Put(-1, buf)
	}
	n.cacheMu.Unlock()
	n.ctx.rt.Tier().Evict()
	return nil
}

// newNode allocates a plan node.
func newNode(ctx *Context, parts int, parents []*node, deps []*shuffleDep,
	compute func(int, *engine.TaskContext, func(chunk any)) error,
	preferred func(int) []int) *node {
	return &node{
		ctx:       ctx,
		id:        ctx.newID(),
		parts:     parts,
		parents:   parents,
		deps:      deps,
		compute:   compute,
		preferred: preferred,
	}
}

// ---- sources ----

// Parallelize distributes data across parts partitions. parts <= 0 uses
// one partition per executor.
func Parallelize[T any](c *Context, data []T, parts int) *RDD[T] {
	if parts <= 0 {
		parts = c.executors()
	}
	if parts > len(data) && len(data) > 0 {
		parts = len(data)
	}
	if parts < 1 {
		parts = 1
	}
	chunks := make([][]T, parts)
	for i := range chunks {
		lo := i * len(data) / parts
		hi := (i + 1) * len(data) / parts
		chunks[i] = data[lo:hi]
	}
	execs := c.executors()
	prefs := executorPrefs(execs)
	n := newNode(c, parts, nil, nil,
		func(part int, _ *engine.TaskContext, sink func(any)) error {
			// The partition slice is sunk whole, zero-copy: one boxing
			// for the entire partition.
			if len(chunks[part]) > 0 {
				sink(chunks[part])
			}
			return nil
		},
		func(part int) []int { return prefs[part%execs] },
	)
	return &RDD[T]{n: n}
}

// Range returns the integers [start, end) as an RDD.
func Range(c *Context, start, end int64, parts int) *RDD[int64] {
	total := end - start
	if total < 0 {
		total = 0
	}
	if parts <= 0 {
		parts = c.executors()
	}
	if parts < 1 {
		parts = 1
	}
	execs := c.executors()
	prefs := executorPrefs(execs)
	n := newNode(c, parts, nil, nil,
		func(part int, _ *engine.TaskContext, sink func(any)) error {
			lo := start + total*int64(part)/int64(parts)
			hi := start + total*int64(part+1)/int64(parts)
			if hi <= lo {
				return nil
			}
			out := make([]int64, hi-lo)
			for i := range out {
				out[i] = lo + int64(i)
			}
			sink(out)
			return nil
		},
		func(part int) []int { return prefs[part%execs] },
	)
	return &RDD[int64]{n: n}
}

// ---- narrow transformations ----

// Map applies f to every element. Fused over chunks: one output slice
// (and one boxing) per input chunk.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	p := r.n
	n := newNode(p.ctx, p.parts, []*node{p}, nil,
		func(part int, tc *engine.TaskContext, sink func(any)) error {
			return p.iterate(part, tc, func(ch any) {
				in := asChunk[T](ch)
				if len(in) == 0 {
					return
				}
				out := make([]U, len(in))
				for i, v := range in {
					out[i] = f(v)
				}
				sink(out)
			})
		}, p.preferred)
	return &RDD[U]{n: n}
}

// FlatMap applies f and flattens the results.
func FlatMap[T, U any](r *RDD[T], f func(T) []U) *RDD[U] {
	p := r.n
	n := newNode(p.ctx, p.parts, []*node{p}, nil,
		func(part int, tc *engine.TaskContext, sink func(any)) error {
			return p.iterate(part, tc, func(ch any) {
				var out []U
				for _, v := range asChunk[T](ch) {
					out = append(out, f(v)...)
				}
				if len(out) > 0 {
					sink(out)
				}
			})
		}, p.preferred)
	return &RDD[U]{n: n}
}

// Filter keeps elements satisfying pred.
func (r *RDD[T]) Filter(pred func(T) bool) *RDD[T] {
	p := r.n
	n := newNode(p.ctx, p.parts, []*node{p}, nil,
		func(part int, tc *engine.TaskContext, sink func(any)) error {
			return p.iterate(part, tc, func(ch any) {
				var out []T
				for _, v := range asChunk[T](ch) {
					if pred(v) {
						out = append(out, v)
					}
				}
				if len(out) > 0 {
					sink(out)
				}
			})
		}, p.preferred)
	return &RDD[T]{n: n}
}

// KeyBy pairs each element with a key derived from it.
func KeyBy[T any, K comparable](r *RDD[T], key func(T) K) *RDD[Pair[K, T]] {
	return Map(r, func(v T) Pair[K, T] { return Pair[K, T]{Key: key(v), Value: v} })
}
