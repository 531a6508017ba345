package rdd

import (
	"fmt"
	"slices"
	"testing"

	"hpcmr/engine"
)

// splitmix64 is the test-local deterministic value stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// keyedInput builds n deterministic pairs over the given key cardinality.
func keyedInput(seed uint64, n, keys int) []Pair[int64, int64] {
	state := seed
	in := make([]Pair[int64, int64], n)
	for i := range in {
		in[i] = Pair[int64, int64]{
			Key:   int64(splitmix64(&state) % uint64(keys)),
			Value: int64(splitmix64(&state) % 1000),
		}
	}
	return in
}

func sortedByKey[V any](pairs []Pair[int64, V]) []Pair[int64, V] {
	out := append([]Pair[int64, V](nil), pairs...)
	slices.SortStableFunc(out, func(a, b Pair[int64, V]) int {
		return int(a.Key - b.Key)
	})
	return out
}

// TestCombineEquivalenceProperty is the map-side-combine equivalence
// property: for random inputs and seeds, ReduceByKey with the combiner
// enabled produces byte-identical sorted output to the combine-disabled
// path — including per-key value order for an associative but not
// commutative f, which pins down the determinism lineage recovery
// depends on.
func TestCombineEquivalenceProperty(t *testing.T) {
	for trial, tc := range []struct {
		seed          uint64
		n, keys       int
		inParts, redP int
	}{
		{1, 1000, 10, 4, 8},
		{2, 1000, 997, 4, 4}, // near-distinct keys: combiner barely helps
		{3, 2000, 1, 8, 3},   // single key
		{4, 500, 64, 1, 1},
		{5, 1, 1, 2, 2},
		{6, 0, 5, 3, 3}, // empty input
		{7, 1500, 128, 7, 5},
		{8, 300, 300, 2, 16},
	} {
		in := keyedInput(tc.seed, tc.n, tc.keys)

		type result struct {
			sums  []Pair[int64, int64]
			lists []Pair[int64, string]
		}
		run := func(opts Options) result {
			ctx, err := NewContextWithOptions(engine.Config{Executors: 2, CoresPerExecutor: 2}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ctx.Stop()
			pairs := Parallelize(ctx, in, tc.inParts)
			sums, err := ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, tc.redP).Collect()
			if err != nil {
				t.Fatal(err)
			}
			// Order-sensitive f: value arrival order is visible in the
			// concatenation, so any ordering divergence between the paths
			// shows up as a string mismatch.
			lists, err := ReduceByKey(MapValues(pairs, func(v int64) string { return fmt.Sprint(v) }),
				func(a, b string) string { return a + "," + b }, tc.redP).Collect()
			if err != nil {
				t.Fatal(err)
			}
			return result{sums: sortedByKey(sums), lists: sortedByKey(lists)}
		}

		combined := run(Options{})
		plain := run(Options{DisableMapSideCombine: true})

		if !slices.Equal(combined.sums, plain.sums) {
			t.Fatalf("trial %d: ReduceByKey diverges between combine paths:\n combined=%v\n disabled=%v",
				trial, combined.sums, plain.sums)
		}
		distinct := map[int64]bool{}
		for _, p := range in {
			distinct[p.Key] = true
		}
		if len(combined.sums) != len(distinct) {
			t.Fatalf("trial %d: %d result keys, want %d", trial, len(combined.sums), len(distinct))
		}
		if !slices.Equal(combined.lists, plain.lists) {
			t.Fatalf("trial %d: ReduceByKey value order diverges:\n combined=%v\n disabled=%v",
				trial, combined.lists, plain.lists)
		}
	}
}

// TestMapSideCombineShrinksShuffle pins the optimization itself: on a
// low-cardinality workload the combined path must move at most
// parts*keys shuffle records where the disabled path moves one per
// input pair.
func TestMapSideCombineShrinksShuffle(t *testing.T) {
	const n, keys, parts = 10_000, 16, 4
	run := func(opts Options) (int64, float64) {
		ctx, err := NewContextWithOptions(engine.Config{Executors: 2, CoresPerExecutor: 2}, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer ctx.Stop()
		pairs := KeyBy(Range(ctx, 0, n, parts), func(i int64) int64 { return i % keys })
		got, err := CollectAsMap(ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, parts))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != keys {
			t.Fatalf("%d result keys, want %d", len(got), keys)
		}
		m := ctx.Runtime().Metrics()
		return m.ShuffleRecords(), m.ShuffleBytes()
	}
	combRecs, combBytes := run(Options{})
	plainRecs, plainBytes := run(Options{DisableMapSideCombine: true})
	if combRecs <= 0 || combRecs > parts*keys {
		t.Fatalf("combined path moved %d records, want (0, %d]", combRecs, parts*keys)
	}
	if plainRecs != n {
		t.Fatalf("disabled path moved %d records, want %d", plainRecs, n)
	}
	if combBytes <= 0 || combBytes >= plainBytes {
		t.Fatalf("combined bytes %.0f not below disabled bytes %.0f", combBytes, plainBytes)
	}
}
