package rdd

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"hpcmr/engine"
)

func ctx(t *testing.T) *Context {
	t.Helper()
	c, err := NewContext(engine.Config{Executors: 4, CoresPerExecutor: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	c := ctx(t)
	data := ints(100)
	got, err := Parallelize(c, data, 7).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, data) {
		t.Fatalf("Collect = %v..., want identity", got[:5])
	}
}

func TestParallelizePartitionCounts(t *testing.T) {
	c := ctx(t)
	if p := Parallelize(c, ints(10), 3).n.parts; p != 3 {
		t.Fatalf("parts = %d, want 3", p)
	}
	// More partitions than elements clamps.
	if p := Parallelize(c, ints(2), 8).n.parts; p != 2 {
		t.Fatalf("parts = %d, want 2", p)
	}
	// Empty data still has one partition.
	if p := Parallelize(c, []int{}, 0).n.parts; p < 1 {
		t.Fatalf("parts = %d, want >= 1", p)
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	c := ctx(t)
	r := Parallelize(c, ints(20), 4)
	doubled := Map(r, func(v int) int { return v * 2 })
	evens := doubled.Filter(func(v int) bool { return v%4 == 0 })
	expanded := FlatMap(evens, func(v int) []int { return []int{v, v + 1} })
	got, err := expanded.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i := 0; i < 20; i++ {
		d := i * 2
		if d%4 == 0 {
			want = append(want, d, d+1)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestCountReduceFold(t *testing.T) {
	c := ctx(t)
	r := Parallelize(c, ints(101), 5)
	n, err := r.Count()
	if err != nil || n != 101 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	sum, err := r.Reduce(func(a, b int) int { return a + b })
	if err != nil || sum != 5050 {
		t.Fatalf("Reduce = %d, %v", sum, err)
	}
}

func TestReduceEmpty(t *testing.T) {
	c := ctx(t)
	r := Parallelize(c, []int{}, 1)
	if _, err := r.Reduce(func(a, b int) int { return a + b }); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestMaxMinSum(t *testing.T) {
	c := ctx(t)
	r := Parallelize(c, []float64{3.5, -1, 7, 2}, 2)
	if s, _ := Sum(r); s != 11.5 {
		t.Fatalf("Sum = %v", s)
	}
	if s, err := Sum(Parallelize(c, []int64{}, 1)); err != nil || s != 0 {
		t.Fatalf("Sum of empty = %v, %v, want 0", s, err)
	}
}

// --- shuffle operations ---

func TestGroupByKeyGroupsExactly(t *testing.T) {
	c := ctx(t)
	var pairs []Pair[string, int]
	want := map[string][]int{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i%7)
		pairs = append(pairs, Pair[string, int]{k, i})
		want[k] = append(want[k], i)
	}
	r := GroupByKey(Parallelize(c, pairs, 5), 3)
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("groups = %d, want 7", len(got))
	}
	for _, p := range got {
		slices.Sort(p.Value)
		if !reflect.DeepEqual(p.Value, want[p.Key]) {
			t.Fatalf("group %s = %v, want %v", p.Key, p.Value, want[p.Key])
		}
	}
}

func TestReduceByKeyMatchesReference(t *testing.T) {
	c := ctx(t)
	rng := rand.New(rand.NewSource(3))
	var pairs []Pair[int, int]
	want := map[int]int{}
	for i := 0; i < 500; i++ {
		k, v := rng.Intn(20), rng.Intn(100)
		pairs = append(pairs, Pair[int, int]{k, v})
		want[k] += v
	}
	got, err := CollectAsMap(ReduceByKey(Parallelize(c, pairs, 8), func(a, b int) int { return a + b }, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReduceByKey = %v, want %v", got, want)
	}
}

func TestReduceByKeyProperty(t *testing.T) {
	f := func(keys []uint8, vals []int32) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		c, err := NewContext(engine.Config{Executors: 3, CoresPerExecutor: 2})
		if err != nil {
			return false
		}
		defer c.Stop()
		pairs := make([]Pair[uint8, int64], n)
		want := map[uint8]int64{}
		for i := 0; i < n; i++ {
			pairs[i] = Pair[uint8, int64]{keys[i], int64(vals[i])}
			want[keys[i]] += int64(vals[i])
		}
		got, err := CollectAsMap(ReduceByKey(Parallelize(c, pairs, 4), func(a, b int64) int64 { return a + b }, 3))
		if err != nil {
			return false
		}
		if len(want) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestJoin(t *testing.T) {
	c := ctx(t)
	users := Parallelize(c, []Pair[int, string]{{1, "ann"}, {2, "bob"}, {3, "cy"}}, 2)
	orders := Parallelize(c, []Pair[int, float64]{{1, 9.5}, {1, 3.5}, {3, 7.0}, {4, 1.0}}, 2)
	joined, err := Join(users, orders, 2).Collect()
	if err != nil {
		t.Fatal(err)
	}
	total := map[string]float64{}
	for _, p := range joined {
		total[p.Value.Left] += p.Value.Right
	}
	if total["ann"] != 13 || total["cy"] != 7 || total["bob"] != 0 {
		t.Fatalf("join totals = %v", total)
	}
	if len(joined) != 3 {
		t.Fatalf("join rows = %d, want 3", len(joined))
	}
}

func TestCoGroupIncludesUnmatched(t *testing.T) {
	c := ctx(t)
	a := Parallelize(c, []Pair[string, int]{{"x", 1}, {"y", 2}}, 1)
	b := Parallelize(c, []Pair[string, int]{{"y", 3}, {"z", 4}}, 1)
	m, err := CollectAsMap(coGroup(a, b, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("cogroup keys = %d, want 3", len(m))
	}
	if len(m["x"].Left) != 1 || len(m["x"].Right) != 0 {
		t.Fatalf("x = %+v", m["x"])
	}
	if len(m["y"].Left) != 1 || len(m["y"].Right) != 1 {
		t.Fatalf("y = %+v", m["y"])
	}
}

func TestDistinct(t *testing.T) {
	c := ctx(t)
	r := Parallelize(c, []int{5, 1, 5, 2, 1, 5}, 3)
	got, err := Distinct(r).Collect()
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if !reflect.DeepEqual(got, []int{1, 2, 5}) {
		t.Fatalf("Distinct = %v", got)
	}
}

func TestKeysValuesMapValues(t *testing.T) {
	c := ctx(t)
	r := Parallelize(c, []Pair[string, int]{{"a", 1}, {"b", 2}}, 1)
	vs, _ := Values(r).Collect()
	if !reflect.DeepEqual(vs, []int{1, 2}) {
		t.Fatalf("Values = %v", vs)
	}
	doubled, _ := MapValues(r, func(v int) int { return v * 2 }).Collect()
	if doubled[0].Value != 2 || doubled[1].Value != 4 {
		t.Fatalf("MapValues = %v", doubled)
	}
}

func TestKeyBy(t *testing.T) {
	c := ctx(t)
	r := Parallelize(c, []string{"apple", "fig", "kiwi"}, 2)
	m, err := CollectAsMap(KeyBy(r, func(s string) int { return len(s) }))
	if err != nil {
		t.Fatal(err)
	}
	if m[5] != "apple" || m[3] != "fig" || m[4] != "kiwi" {
		t.Fatalf("KeyBy = %v", m)
	}
}

// --- caching ---

func TestCacheComputesOnce(t *testing.T) {
	c := ctx(t)
	var computes int64
	r := Map(Parallelize(c, ints(40), 4), func(v int) int {
		atomic.AddInt64(&computes, 1)
		return v
	}).Cache()
	if _, err := r.Count(); err != nil {
		t.Fatal(err)
	}
	first := atomic.LoadInt64(&computes)
	if first != 40 {
		t.Fatalf("first pass computed %d, want 40", first)
	}
	if _, err := r.Count(); err != nil {
		t.Fatal(err)
	}
	if again := atomic.LoadInt64(&computes); again != first {
		t.Fatalf("cached pass recomputed: %d -> %d", first, again)
	}
}

func TestCacheSkipsParentShuffle(t *testing.T) {
	c := ctx(t)
	pairs := Parallelize(c, []Pair[int, int]{{1, 1}, {2, 2}, {1, 3}}, 2)
	reduced := ReduceByKey(pairs, func(a, b int) int { return a + b }, 2).Cache()
	if _, err := reduced.Count(); err != nil {
		t.Fatal(err)
	}
	before := c.Runtime().Metrics().TasksRun()
	if _, err := reduced.Count(); err != nil {
		t.Fatal(err)
	}
	after := c.Runtime().Metrics().TasksRun()
	// Only the result stage reran (2 tasks), not the shuffle map stage.
	if after-before != 2 {
		t.Fatalf("cached action ran %d tasks, want 2", after-before)
	}
}

// --- failure handling ---

func TestTaskFailurePropagates(t *testing.T) {
	c := ctx(t)
	r := Map(Parallelize(c, ints(10), 2), func(v int) int {
		if v == 7 {
			panic("poison value")
		}
		return v
	})
	if _, err := r.Collect(); err == nil {
		t.Fatal("expected failure to propagate")
	}
}

func TestTransientFailureRetries(t *testing.T) {
	c := ctx(t)
	var failures int64
	// Partition 1 holds 4..7: its first attempt fails on its first element.
	r := Map(Parallelize(c, ints(8), 2), func(v int) int {
		if v == 4 && atomic.AddInt64(&failures, 1) == 1 {
			panic("first attempt fails")
		}
		return v
	})
	got, err := r.Count()
	if err != nil {
		t.Fatal(err)
	}
	if got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
}

// --- chained pipelines ---

func TestWordCountEndToEnd(t *testing.T) {
	c := ctx(t)
	lines := Parallelize(c, []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
	}, 2)
	words := FlatMap(lines, func(l string) []string { return strings.Fields(l) })
	pairs := Map(words, func(w string) Pair[string, int] { return Pair[string, int]{w, 1} })
	counts, err := CollectAsMap(ReduceByKey(pairs, func(a, b int) int { return a + b }, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("wordcount = %v", counts)
	}
}

func TestMultiShuffleChain(t *testing.T) {
	c := ctx(t)
	r := Parallelize(c, ints(100), 5)
	byMod := Map(r, func(v int) Pair[int, int] { return Pair[int, int]{v % 10, v} })
	sums := ReduceByKey(byMod, func(a, b int) int { return a + b }, 4)
	// Second shuffle over the first's output.
	byParity := Map(sums, func(p Pair[int, int]) Pair[int, int] { return Pair[int, int]{p.Key % 2, p.Value} })
	final, err := CollectAsMap(ReduceByKey(byParity, func(a, b int) int { return a + b }, 2))
	if err != nil {
		t.Fatal(err)
	}
	if final[0]+final[1] != 4950 {
		t.Fatalf("chain total = %v", final)
	}
}

// --- file I/O ---

func TestTextFileRoundTrip(t *testing.T) {
	c := ctx(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "in.txt")
	var lines []string
	for i := 0; i < 500; i++ {
		lines = append(lines, fmt.Sprintf("line-%04d with some padding text", i))
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := TextFile(c, path, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, lines) {
		t.Fatalf("TextFile: got %d lines, want %d; first=%q", len(got), len(lines), got[0])
	}
}

func TestTextFileNoTrailingNewline(t *testing.T) {
	c := ctx(t)
	path := filepath.Join(t.TempDir(), "x.txt")
	if err := os.WriteFile(path, []byte("a\nb\nc"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := TextFile(c, path, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("lines = %v", got)
	}
}

func TestTextFileMissing(t *testing.T) {
	c := ctx(t)
	if _, err := TextFile(c, "/nonexistent/file", 2); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// --- properties ---

func TestGroupByKeyPartitionProperty(t *testing.T) {
	// GroupByKey is a partition of the input: every (k,v) appears in
	// exactly one group, groups are disjoint on keys.
	f := func(keys []uint8) bool {
		c, err := NewContext(engine.Config{Executors: 2, CoresPerExecutor: 2})
		if err != nil {
			return false
		}
		defer c.Stop()
		pairs := make([]Pair[uint8, int], len(keys))
		for i, k := range keys {
			pairs[i] = Pair[uint8, int]{k, i}
		}
		groups, err := GroupByKey(Parallelize(c, pairs, 3), 3).Collect()
		if err != nil {
			return false
		}
		seenKeys := map[uint8]bool{}
		total := 0
		for _, g := range groups {
			if seenKeys[g.Key] {
				return false // key in two groups
			}
			seenKeys[g.Key] = true
			total += len(g.Value)
		}
		return total == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStringer(t *testing.T) {
	c := ctx(t)
	s := Parallelize(c, ints(4), 2).String()
	if !strings.Contains(s, "parts=2") {
		t.Fatalf("String = %q", s)
	}
}
