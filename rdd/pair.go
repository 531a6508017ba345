package rdd

import (
	"hash/maphash"
	"sync"

	"hpcmr/engine"
)

// Pair is a key/value record — the currency of shuffle operations.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// JoinValue holds one matched pair from Join.
type JoinValue[V, W any] struct {
	Left  V
	Right W
}

// coGrouped holds the grouped values of both sides of coGroup.
type coGrouped[V, W any] struct {
	Left  []V
	Right []W
}

// bucketFor hashes a key to a reduce partition using the context's
// cached seed.
func bucketFor[K comparable](c *Context, k K, parts int) int {
	return int(maphash.Comparable(c.seed, k) % uint64(parts))
}

// countedWriter is the shared two-pass bucket builder: pass one places
// each record once (recording its bucket in a compact index and
// counting), pass two presizes every bucket exactly and fills. Map
// output is built with O(buckets) allocations instead of O(records) —
// no bucket regrowth, no per-record boxing.
func countedWriter[E any](chunks []any, parts int, place func(E) int) ([]any, int, int64) {
	total := chunkRecords[E](chunks)
	counts := make([]int, parts)
	assign := make([]int32, total)
	i := 0
	for _, ch := range chunks {
		for _, v := range asChunk[E](ch) {
			b := place(v)
			assign[i] = int32(b)
			counts[b]++
			i++
		}
	}
	buckets := make([][]E, parts)
	for b, n := range counts {
		if n > 0 {
			buckets[b] = make([]E, 0, n)
		}
	}
	i = 0
	for _, ch := range chunks {
		for _, v := range asChunk[E](ch) {
			b := assign[i]
			buckets[b] = append(buckets[b], v)
			i++
		}
	}
	return boxBuckets(buckets), total, int64(total) * elemBytes[E]()
}

// hashWriter partitions Pair[K,V] chunks by key hash.
func hashWriter[K comparable, V any](c *Context, parts int) func([]any) ([]any, int, int64) {
	return func(chunks []any) ([]any, int, int64) {
		return countedWriter(chunks, parts, func(p Pair[K, V]) int {
			return bucketFor(c, p.Key, parts)
		})
	}
}

// combiningWriter is the hash-aggregating map-side writer behind
// ReduceByKey: one pass folds every record into its key's accumulator
// with f, computing the key's reduce bucket once — when first seen — and
// counting it toward that bucket. A second pass over the distinct keys
// (not the input records) fills exactly presized buckets, so the shuffle
// carries one Pair[K,V] per (key, map partition) instead of one record
// per input pair. Key order within a bucket is first-seen order, keeping
// output deterministic for a given input ordering — lineage re-execution
// reproduces combined chunks bit for bit.
func combiningWriter[K comparable, V any](c *Context, parts int, f func(V, V) V) func([]any) ([]any, int, int64) {
	return func(chunks []any) ([]any, int, int64) {
		total := chunkRecords[Pair[K, V]](chunks)
		idx := make(map[K]int, total)
		order := make([]K, 0, total)
		accs := make([]V, 0, total)
		assign := make([]int32, 0, total)
		counts := make([]int, parts)
		for _, ch := range chunks {
			for _, p := range asChunk[Pair[K, V]](ch) {
				i, ok := idx[p.Key]
				if !ok {
					b := bucketFor(c, p.Key, parts)
					idx[p.Key] = len(order)
					order = append(order, p.Key)
					accs = append(accs, p.Value)
					assign = append(assign, int32(b))
					counts[b]++
					continue
				}
				accs[i] = f(accs[i], p.Value)
			}
		}
		buckets := make([][]Pair[K, V], parts)
		for b, n := range counts {
			if n > 0 {
				buckets[b] = make([]Pair[K, V], 0, n)
			}
		}
		for i, k := range order {
			b := assign[i]
			buckets[b] = append(buckets[b], Pair[K, V]{Key: k, Value: accs[i]})
		}
		n := len(order)
		return boxBuckets(buckets), n, int64(n) * elemBytes[Pair[K, V]]()
	}
}

// shufflePrefs builds the preferred-location function of a shuffled
// node: for each reduce partition, the executors owning the most map
// output across the node's dependencies, from
// Runtime.ReducePreferences. Resolved lazily on first use and cached —
// reduce tasks are built only after their dependencies materialize, so
// the engine shuffle IDs are known by then. Dead owners are already
// excluded by the scorer; preferences are hints, never requirements,
// so a stale cache after a later executor loss degrades to remote
// placement rather than wedging a stage.
func shufflePrefs(c *Context, deps []*shuffleDep, parts int) func(int) []int {
	var once sync.Once
	var prefs [][]int
	return func(part int) []int {
		once.Do(func() {
			ids := make([]int, 0, len(deps))
			for _, d := range deps {
				d.mu.Lock()
				if d.materialized {
					ids = append(ids, d.engineID)
				}
				d.mu.Unlock()
			}
			if len(ids) > 0 {
				prefs = c.rt.ReducePreferences(ids, parts)
			}
		})
		if part < len(prefs) {
			return prefs[part]
		}
		return nil
	}
}

// defaultParts resolves a partition-count argument.
func defaultParts(r *node, parts int) int {
	if parts <= 0 {
		return r.parts
	}
	return parts
}

// GroupByKey shuffles pairs so each key's values are grouped in one
// partition. Key order within a partition is first-seen order, making
// results deterministic for a given input ordering.
func GroupByKey[K comparable, V any](r *RDD[Pair[K, V]], parts int) *RDD[Pair[K, []V]] {
	c := r.n.ctx
	parts = defaultParts(r.n, parts)
	dep := &shuffleDep{parent: r.n, reduceParts: parts, write: hashWriter[K, V](c, parts)}
	n := newNode(c, parts, nil, []*shuffleDep{dep},
		func(part int, tc *engine.TaskContext, sink func(any)) error {
			chunks, err := c.rt.FetchShuffleChunks(tc, dep.engineID, part)
			if err != nil {
				return err
			}
			// Presize grouping state from the fetched record count (an
			// upper bound on distinct keys) — no rehash/regrow churn.
			total := chunkRecords[Pair[K, V]](chunks)
			idx := make(map[K]int, total)
			order := make([]K, 0, total)
			lists := make([][]V, 0, total)
			for _, ch := range chunks {
				for _, p := range asChunk[Pair[K, V]](ch) {
					i, ok := idx[p.Key]
					if !ok {
						i = len(order)
						idx[p.Key] = i
						order = append(order, p.Key)
						lists = append(lists, nil)
					}
					lists[i] = append(lists[i], p.Value)
				}
			}
			if len(order) == 0 {
				return nil
			}
			out := make([]Pair[K, []V], len(order))
			for i, k := range order {
				out[i] = Pair[K, []V]{Key: k, Value: lists[i]}
			}
			sink(out)
			return nil
		}, shufflePrefs(c, []*shuffleDep{dep}, parts))
	return &RDD[Pair[K, []V]]{n: n}
}

// ReduceByKey merges each key's values with f (associative). Each map
// partition folds its values per key before the shuffle (map-side
// combining shrinks shuffle volume, as in Spark), and the reduce side
// merges the partial results with f again.
func ReduceByKey[K comparable, V any](r *RDD[Pair[K, V]], f func(V, V) V, parts int) *RDD[Pair[K, V]] {
	c := r.n.ctx
	parts = defaultParts(r.n, parts)
	write := combiningWriter[K](c, parts, f)
	if c.opts.DisableMapSideCombine {
		write = hashWriter[K, V](c, parts)
	}
	dep := &shuffleDep{parent: r.n, reduceParts: parts, write: write}
	n := newNode(c, parts, nil, []*shuffleDep{dep},
		func(part int, tc *engine.TaskContext, sink func(any)) error {
			chunks, err := c.rt.FetchShuffleChunks(tc, dep.engineID, part)
			if err != nil {
				return err
			}
			total := chunkRecords[Pair[K, V]](chunks)
			idx := make(map[K]int, total)
			order := make([]K, 0, total)
			accs := make([]V, 0, total)
			for _, ch := range chunks {
				for _, p := range asChunk[Pair[K, V]](ch) {
					i, ok := idx[p.Key]
					if !ok {
						idx[p.Key] = len(order)
						order = append(order, p.Key)
						accs = append(accs, p.Value)
						continue
					}
					accs[i] = f(accs[i], p.Value)
				}
			}
			if len(order) == 0 {
				return nil
			}
			out := make([]Pair[K, V], len(order))
			for i, k := range order {
				out[i] = Pair[K, V]{Key: k, Value: accs[i]}
			}
			sink(out)
			return nil
		}, shufflePrefs(c, []*shuffleDep{dep}, parts))
	return &RDD[Pair[K, V]]{n: n}
}

// coGroup groups both RDDs' values per key: the result holds, for every
// key present in either side, all left values and all right values.
func coGroup[K comparable, V, W any](a *RDD[Pair[K, V]], b *RDD[Pair[K, W]], parts int) *RDD[Pair[K, coGrouped[V, W]]] {
	c := a.n.ctx
	if b.n.ctx != c {
		panic("rdd: Join across contexts")
	}
	parts = defaultParts(a.n, parts)
	depA := &shuffleDep{parent: a.n, reduceParts: parts, write: hashWriter[K, V](c, parts)}
	depB := &shuffleDep{parent: b.n, reduceParts: parts, write: hashWriter[K, W](c, parts)}
	n := newNode(c, parts, nil, []*shuffleDep{depA, depB},
		func(part int, tc *engine.TaskContext, sink func(any)) error {
			chunksA, err := c.rt.FetchShuffleChunks(tc, depA.engineID, part)
			if err != nil {
				return err
			}
			chunksB, err := c.rt.FetchShuffleChunks(tc, depB.engineID, part)
			if err != nil {
				return err
			}
			total := chunkRecords[Pair[K, V]](chunksA) + chunkRecords[Pair[K, W]](chunksB)
			idx := make(map[K]int, total)
			order := make([]K, 0, total)
			groups := make([]coGrouped[V, W], 0, total)
			locate := func(k K) int {
				i, ok := idx[k]
				if !ok {
					i = len(order)
					idx[k] = i
					order = append(order, k)
					groups = append(groups, coGrouped[V, W]{})
				}
				return i
			}
			for _, ch := range chunksA {
				for _, p := range asChunk[Pair[K, V]](ch) {
					i := locate(p.Key)
					groups[i].Left = append(groups[i].Left, p.Value)
				}
			}
			for _, ch := range chunksB {
				for _, p := range asChunk[Pair[K, W]](ch) {
					i := locate(p.Key)
					groups[i].Right = append(groups[i].Right, p.Value)
				}
			}
			if len(order) == 0 {
				return nil
			}
			out := make([]Pair[K, coGrouped[V, W]], len(order))
			for i, k := range order {
				out[i] = Pair[K, coGrouped[V, W]]{Key: k, Value: groups[i]}
			}
			sink(out)
			return nil
		}, shufflePrefs(c, []*shuffleDep{depA, depB}, parts))
	return &RDD[Pair[K, coGrouped[V, W]]]{n: n}
}

// Join inner-joins two pair RDDs on key, emitting every left/right
// combination.
func Join[K comparable, V, W any](a *RDD[Pair[K, V]], b *RDD[Pair[K, W]], parts int) *RDD[Pair[K, JoinValue[V, W]]] {
	cg := coGroup(a, b, parts)
	return FlatMap(cg, func(p Pair[K, coGrouped[V, W]]) []Pair[K, JoinValue[V, W]] {
		if len(p.Value.Left) == 0 || len(p.Value.Right) == 0 {
			return nil
		}
		out := make([]Pair[K, JoinValue[V, W]], 0, len(p.Value.Left)*len(p.Value.Right))
		for _, v := range p.Value.Left {
			for _, w := range p.Value.Right {
				out = append(out, Pair[K, JoinValue[V, W]]{Key: p.Key, Value: JoinValue[V, W]{Left: v, Right: w}})
			}
		}
		return out
	})
}

// Distinct removes duplicate elements (via a shuffle).
func Distinct[T comparable](r *RDD[T]) *RDD[T] {
	pairs := Map(r, func(v T) Pair[T, struct{}] { return Pair[T, struct{}]{Key: v} })
	reduced := ReduceByKey(pairs, func(a, _ struct{}) struct{} { return a }, r.n.parts)
	return Map(reduced, func(p Pair[T, struct{}]) T { return p.Key })
}

// Values projects the values of a pair RDD.
func Values[K comparable, V any](r *RDD[Pair[K, V]]) *RDD[V] {
	return Map(r, func(p Pair[K, V]) V { return p.Value })
}

// MapValues transforms values, keeping keys.
func MapValues[K comparable, V, U any](r *RDD[Pair[K, V]], f func(V) U) *RDD[Pair[K, U]] {
	p := r.n
	n := newNode(p.ctx, p.parts, []*node{p}, nil,
		func(part int, tc *engine.TaskContext, sink func(any)) error {
			return p.iterate(part, tc, func(ch any) {
				in := asChunk[Pair[K, V]](ch)
				if len(in) == 0 {
					return
				}
				out := make([]Pair[K, U], len(in))
				for i, kv := range in {
					out[i] = Pair[K, U]{Key: kv.Key, Value: f(kv.Value)}
				}
				sink(out)
			})
		}, p.preferred)
	return &RDD[Pair[K, U]]{n: n}
}
