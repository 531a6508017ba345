package rdd

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"hpcmr/engine"
	"hpcmr/internal/sched"
	"hpcmr/internal/spill"
)

// spillJobResult is everything one budgeted run produces: the job
// outputs (sorted) and the accountant's counters.
type spillJobResult struct {
	sums  []Pair[int64, int64]
	lists []Pair[int64, string]
	count int64
	stats spill.Stats
	ok    bool
}

// runSpillJob runs the spill property workload under one budget: a
// cached input re-used by three actions (so cached partitions spill and
// restore across jobs), a keyed sum, and an order-sensitive string
// reduce whose concatenations surface any corruption or reordering a
// spill round trip might introduce.
func runSpillJob(t *testing.T, budget int64, in []Pair[int64, int64], inParts, redP int) spillJobResult {
	t.Helper()
	ctx, err := NewContext(engine.Config{
		Executors: 2, CoresPerExecutor: 2, MemoryBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Stop()
	pairs := Parallelize(ctx, in, inParts).Cache()
	sums, err := ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, redP).Collect()
	if err != nil {
		t.Fatal(err)
	}
	lists, err := ReduceByKey(MapValues(pairs, func(v int64) string { return fmt.Sprint(v) }),
		func(a, b string) string { return a + "," + b }, redP).Collect()
	if err != nil {
		t.Fatal(err)
	}
	count, err := pairs.Count()
	if err != nil {
		t.Fatal(err)
	}
	res := spillJobResult{sums: sortedByKey(sums), lists: sortedByKey(lists), count: count}
	res.stats, res.ok = ctx.Runtime().SpillStats()
	return res
}

// TestSpillRestoreEquivalenceProperty is the memory-budget equivalence
// property: for random budgets — including 0 (unbounded), 1 byte
// (everything spills), and exactly-at-watermark — the workload produces
// byte-identical sorted output, and the accounted stabilized peak never
// exceeds the budget.
func TestSpillRestoreEquivalenceProperty(t *testing.T) {
	// Large enough that nothing ever spills: the accounted run it
	// produces is the reference, and its peak is the true watermark.
	const unboundedish = int64(1) << 40

	for trial, tc := range []struct {
		seed          uint64
		n, keys       int
		inParts, redP int
	}{
		{11, 1200, 16, 4, 8},
		{12, 800, 797, 4, 4}, // near-distinct keys
		{13, 2000, 1, 8, 3},  // single key
		{14, 400, 32, 1, 1},
		{15, 1, 1, 2, 2},
		{16, 900, 64, 5, 7},
	} {
		in := keyedInput(tc.seed, tc.n, tc.keys)

		ref := runSpillJob(t, unboundedish, in, tc.inParts, tc.redP)
		if !ref.ok {
			t.Fatalf("trial %d: reference run has no accountant", trial)
		}
		if ref.stats.Spills != 0 {
			t.Fatalf("trial %d: reference run spilled %d times", trial, ref.stats.Spills)
		}
		watermark := ref.stats.Peak
		if watermark <= 0 {
			t.Fatalf("trial %d: watermark %d", trial, watermark)
		}

		check := func(label string, budget int64, got spillJobResult) {
			if !slices.Equal(got.sums, ref.sums) {
				t.Fatalf("trial %d %s: sums diverge from unbounded run", trial, label)
			}
			if !slices.Equal(got.lists, ref.lists) {
				t.Fatalf("trial %d %s: string concatenations diverge from unbounded run", trial, label)
			}
			if got.count != int64(tc.n) {
				t.Fatalf("trial %d %s: count %d, want %d", trial, label, got.count, tc.n)
			}
			if budget > 0 {
				if !got.ok {
					t.Fatalf("trial %d %s: no accountant", trial, label)
				}
				if got.stats.Peak > budget {
					t.Fatalf("trial %d %s: stabilized peak %d exceeds budget %d",
						trial, label, got.stats.Peak, budget)
				}
				if got.stats.EncodeFailures != 0 {
					t.Fatalf("trial %d %s: %d encode failures", trial, label, got.stats.EncodeFailures)
				}
			}
		}

		// Budget 0: the classic unbudgeted store.
		check("budget=0", 0, runSpillJob(t, 0, in, tc.inParts, tc.redP))

		// Exactly at the watermark: fits, so nothing may spill.
		at := runSpillJob(t, watermark, in, tc.inParts, tc.redP)
		check("budget=watermark", watermark, at)
		if at.stats.Spills != 0 {
			t.Fatalf("trial %d: at-watermark run spilled %d times", trial, at.stats.Spills)
		}

		// One byte under: the final admission must force at least one
		// eviction.
		if watermark > 1 {
			under := runSpillJob(t, watermark-1, in, tc.inParts, tc.redP)
			check("budget=watermark-1", watermark-1, under)
			if under.stats.Spills == 0 {
				t.Fatalf("trial %d: watermark-1 run never spilled", trial)
			}
		}

		// One byte total: everything spills, every fetch restores.
		tiny := runSpillJob(t, 1, in, tc.inParts, tc.redP)
		check("budget=1", 1, tiny)
		if tiny.stats.Spills == 0 || tiny.stats.Restores == 0 {
			t.Fatalf("trial %d: 1-byte budget stats %+v", trial, tiny.stats)
		}

		// Random budgets across (0, 2*watermark].
		state := tc.seed * 0x9E3779B97F4A7C15
		for i := 0; i < 3; i++ {
			budget := int64(splitmix64(&state)%uint64(2*watermark)) + 1
			check(fmt.Sprintf("budget=%d", budget), budget,
				runSpillJob(t, budget, in, tc.inParts, tc.redP))
		}
	}
}

// TestSpillCacheRoundTrip pins the cache side specifically: a cached
// RDD whose partitions were evicted must serve later jobs from spill
// files without recomputation.
func TestSpillCacheRoundTrip(t *testing.T) {
	ctx, err := NewContext(engine.Config{
		Executors: 2, CoresPerExecutor: 2, MemoryBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Stop()
	var computes atomic.Int64
	base := Range(ctx, 0, 1000, 4)
	counted := Map(base, func(v int64) int64 { computes.Add(1); return v }).Cache()
	sum := func() int64 {
		s, err := counted.Reduce(func(a, b int64) int64 { return a + b })
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	first := sum()
	computesAfterFirst := computes.Load()
	if computesAfterFirst != 1000 {
		t.Fatalf("first pass computed %d elements, want 1000", computesAfterFirst)
	}
	if again := sum(); again != first {
		t.Fatalf("cached sum diverged: %d then %d", first, again)
	}
	if got := computes.Load(); got != computesAfterFirst {
		t.Fatalf("second pass recomputed: %d -> %d element computations",
			computesAfterFirst, got)
	}
	st, ok := ctx.Runtime().SpillStats()
	if !ok || st.Spills == 0 || st.Restores == 0 {
		t.Fatalf("expected cache spill traffic, stats %+v (ok=%v)", st, ok)
	}
}

// TestCacheSpillCorruptRecomputes: a cached partition whose spill file is
// truncated, bit-flipped or deleted is recomputed by the next action —
// that partition only — which returns the unbudgeted run's result and
// audits exactly one spill-corrupt.
func TestCacheSpillCorruptRecomputes(t *testing.T) {
	const n, parts = 600, 4
	in := keyedInput(21, n, 32)
	run := func(budget int64, damage func(path string) error) (sums []Pair[int64, int64], computes, corrupt int64) {
		t.Helper()
		dir := t.TempDir()
		var computed, corrupted atomic.Int64
		ctx, err := NewContext(engine.Config{
			Executors: 2, CoresPerExecutor: 2, MemoryBudget: budget, SpillDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ctx.Stop()
		ctx.Runtime().AddListener(engine.FuncListener{Decision: func(e sched.AuditEvent) {
			if e.Kind == "spill-corrupt" {
				corrupted.Add(1)
			}
		}})
		cached := Map(Parallelize(ctx, in, parts), func(p Pair[int64, int64]) Pair[int64, int64] {
			computed.Add(1)
			return p
		}).Cache()
		if _, err := cached.Count(); err != nil {
			t.Fatal(err)
		}
		if damage != nil {
			files, _ := filepath.Glob(filepath.Join(dir, "cache-*.spill"))
			if len(files) != parts {
				t.Fatalf("%d cached partitions spilled, want %d", len(files), parts)
			}
			if err := damage(files[0]); err != nil {
				t.Fatal(err)
			}
		}
		sums, err = ReduceByKey(cached, func(a, b int64) int64 { return a + b }, 3).Collect()
		if err != nil {
			t.Fatal(err)
		}
		return sortedByKey(sums), computed.Load(), corrupted.Load()
	}
	want, _, _ := run(0, nil)
	for name, damage := range map[string]func(string) error{
		"truncate": func(path string) error { return os.Truncate(path, 10) },
		"bit-flip": func(path string) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			raw[len(raw)-1] ^= 0x10 // inside the last frame
			return os.WriteFile(path, raw, 0o644)
		},
		"delete": os.Remove,
	} {
		got, computes, corrupt := run(1, damage)
		if !slices.Equal(got, want) {
			t.Errorf("%s: result differs from the unbudgeted run", name)
		}
		if computes != n+n/parts {
			t.Errorf("%s: %d element computations, want %d: the damaged partition once more", name, computes, n+n/parts)
		}
		if corrupt != 1 {
			t.Errorf("%s: %d spill-corrupt audits, want 1", name, corrupt)
		}
	}
}
