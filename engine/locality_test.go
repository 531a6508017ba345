package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// putOwned writes one map partition's output for owner, with each of
// the reduceParts buckets holding an []int64 chunk of elems elements
// (8 bytes each), so byte scores are exact.
func putOwned(t *testing.T, rt *Runtime, shuffle, mapPart, owner, reduceParts int, elems int) {
	t.Helper()
	chunks := make([]any, reduceParts)
	for r := range chunks {
		chunks[r] = make([]int64, elems)
	}
	if err := rt.Shuffle().PutChunksFrom(shuffle, mapPart, owner, chunks); err != nil {
		t.Fatal(err)
	}
}

// TestReducePreferencesSoleOwner: one executor wrote every map
// partition, so it is the sole preferred location of every bucket.
func TestReducePreferencesSoleOwner(t *testing.T) {
	rt, _ := New(testCfg())
	id := rt.Shuffle().Register(3, 2)
	for m := 0; m < 3; m++ {
		putOwned(t, rt, id, m, 2, 2, 100)
	}
	prefs := rt.ReducePreferences([]int{id}, 2)
	for r, p := range prefs {
		if len(p) != 1 || p[0] != 2 {
			t.Fatalf("part %d prefers %v, want [2]", r, p)
		}
	}
}

// TestReducePreferencesSplitOwnership: near-peers (≥50% of the
// leader's bytes) are co-preferred in descending-bytes order; a minor
// owner below the cut is not listed.
func TestReducePreferencesSplitOwnership(t *testing.T) {
	rt, _ := New(testCfg())
	id := rt.Shuffle().Register(3, 1)
	putOwned(t, rt, id, 0, 0, 1, 1000) // leader: 8000 bytes
	putOwned(t, rt, id, 1, 1, 1, 600)  // near-peer: 4800 bytes ≥ 50%
	putOwned(t, rt, id, 2, 3, 1, 100)  // minor: 800 bytes < 50%
	prefs := rt.ReducePreferences([]int{id}, 1)
	if len(prefs[0]) != 2 || prefs[0][0] != 0 || prefs[0][1] != 1 {
		t.Fatalf("prefs %v, want [0 1] (descending bytes, minor owner cut)", prefs[0])
	}
}

// TestReducePreferencesDeadOwner: a failed executor never appears in
// preferences — its partitions are invalidated and the bucket falls
// back to the surviving co-owner, or to no preference at all. A stage
// scheduled with the resulting nil preference must still run (locality
// never wedges on a dead preferred owner).
func TestReducePreferencesDeadOwner(t *testing.T) {
	cfg := testCfg()
	cfg.Policy = ShuffleLocality
	rt, _ := New(cfg)
	id := rt.Shuffle().Register(2, 1)
	putOwned(t, rt, id, 0, 1, 1, 1000)
	putOwned(t, rt, id, 1, 2, 1, 900)

	rt.FailExecutor(1)
	prefs := rt.ReducePreferences([]int{id}, 1)
	if len(prefs[0]) != 1 || prefs[0][0] != 2 {
		t.Fatalf("prefs %v after owner 1 died, want [2]", prefs[0])
	}

	rt.FailExecutor(2)
	prefs = rt.ReducePreferences([]int{id}, 1)
	if prefs[0] != nil {
		t.Fatalf("prefs %v after all owners died, want nil", prefs[0])
	}

	ran := false
	err := rt.RunStage("after-owner-loss", []TaskSpec{{
		Preferred: prefs[0],
		Run:       func(tc *TaskContext) error { ran = true; return nil },
	}})
	if err != nil || !ran {
		t.Fatalf("stage with nil preference: ran=%v err=%v", ran, err)
	}
}

// TestReducePreferencesSpilledOwner: a spilled partition scores the
// bytes it was put with, like a resident one, so the larger owner leads
// though its bytes went to disk.
func TestReducePreferencesSpilledOwner(t *testing.T) {
	cfg := testCfg()
	// Budget fits owner 1's 8000 resident bytes but not owner 0's
	// 12000: owner 0's partition spills at write time, owner 1's stays
	// resident.
	cfg.MemoryBudget = 8000
	cfg.SpillDir = t.TempDir()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := rt.Shuffle().Register(2, 1)
	putOwned(t, rt, id, 0, 0, 1, 1500) // 12000 bytes, spills
	putOwned(t, rt, id, 1, 1, 1, 1000) // 8000 bytes, resident

	st, ok := rt.Shuffle().SpillStats()
	if !ok || st.Spills == 0 {
		t.Fatalf("expected owner 0's partition to spill; stats %+v ok=%v", st, ok)
	}
	prefs := rt.ReducePreferences([]int{id}, 1)
	if len(prefs[0]) != 2 || prefs[0][0] != 0 || prefs[0][1] != 1 {
		t.Fatalf("prefs %v, want [0 1]: the spilled 12000 bytes lead the resident 8000", prefs[0])
	}
}

// TestOwnerReduceBytesOneRule: the same skewed per-bucket bytes, put as
// resident chunks, as a row the memory budget spills and as driver
// placeholders, score identically — each row counts the bytes it was
// put with, wherever they now live.
func TestOwnerReduceBytesOneRule(t *testing.T) {
	buckets := [][]int64{{12000, 80}, {80, 8000}} // [owner][bucket] bytes
	want := [][]float64{{12000, 80, 0, 0}, {80, 8000, 0, 0}}
	putChunks := func(t *testing.T, rt *Runtime, id int) {
		for o, row := range buckets {
			chunks := make([]any, len(row))
			for r, b := range row {
				chunks[r] = make([]int64, b/8)
			}
			if err := rt.Shuffle().PutChunksFrom(id, o, o, chunks); err != nil {
				t.Fatal(err)
			}
		}
	}
	putMeta := func(t *testing.T, rt *Runtime, id int) {
		for o, row := range buckets {
			if err := rt.Shuffle().PutChunkMetaFrom(id, o, o, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	ways := []struct {
		name   string
		budget int64
		put    func(*testing.T, *Runtime, int)
	}{
		{"resident", 0, putChunks},
		// Owner 0's 12080 bytes exceed the budget and spill; owner 1's
		// 8080 fit and stay resident.
		{"spilled", 8100, putChunks},
		{"placeholder", 0, putMeta},
	}
	for _, w := range ways {
		t.Run(w.name, func(t *testing.T) {
			cfg := testCfg()
			if w.budget > 0 {
				cfg.MemoryBudget, cfg.SpillDir = w.budget, t.TempDir()
			}
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			id := rt.Shuffle().Register(2, 2)
			w.put(t, rt, id)
			if st, ok := rt.Shuffle().SpillStats(); ok && st.Spills != 1 {
				t.Fatalf("spills = %d, want owner 0's row alone", st.Spills)
			}
			if got := rt.Shuffle().OwnerReduceBytes(id, cfg.Executors); !reflect.DeepEqual(got, want) {
				t.Fatalf("OwnerReduceBytes = %v, want %v", got, want)
			}
			if got, want := rt.ReducePreferences([]int{id}, 2), [][]int{{0}, {1}}; !reflect.DeepEqual(got, want) {
				t.Fatalf("ReducePreferences = %v, want %v", got, want)
			}
		})
	}
}

// TestReducePreferencesPlaceholderWeights: driver-side provenance rows
// (PutChunkMetaFrom, no data held) score at their recorded per-bucket
// weights, steering each bucket to the executor that reported the most
// bytes for it — the dist driver's placement path.
func TestReducePreferencesPlaceholderWeights(t *testing.T) {
	rt, _ := New(testCfg())
	id := rt.Shuffle().Register(2, 2)
	if err := rt.Shuffle().PutChunkMetaFrom(id, 0, 1, []int64{9000, 10}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Shuffle().PutChunkMetaFrom(id, 1, 3, []int64{20, 7000}); err != nil {
		t.Fatal(err)
	}
	prefs := rt.ReducePreferences([]int{id}, 2)
	if len(prefs[0]) != 1 || prefs[0][0] != 1 {
		t.Fatalf("bucket 0 prefers %v, want [1]", prefs[0])
	}
	if len(prefs[1]) != 1 || prefs[1][0] != 3 {
		t.Fatalf("bucket 1 prefers %v, want [3]", prefs[1])
	}
}

// TestLocalityStageRunsOnPreferredExecutors: under either locality
// policy, a stage of one owner per task that fits in the cluster's
// slots — a full one (8 tasks) or one slot per executor (4) — runs
// every task on its preferred executor, the placement the zero-copy
// path depends on. The round-robin offer sweep is what keeps executor
// 0's second core from stealing a task whose owner has not yet been
// offered a slot.
func TestLocalityStageRunsOnPreferredExecutors(t *testing.T) {
	for _, policy := range []PolicyKind{Locality, ShuffleLocality} {
		for _, n := range []int{8, 4} {
			t.Run(fmt.Sprintf("%v/%d", policy, n), func(t *testing.T) {
				cfg := testCfg() // 4 executors × 2 cores
				cfg.Policy = policy
				rt, _ := New(cfg)

				var mu sync.Mutex
				ranOn := map[int]int{}
				rt.AddListener(FuncListener{TaskEnd: func(e TaskEvent) {
					mu.Lock()
					ranOn[e.TaskID] = e.Executor
					mu.Unlock()
				}})

				tasks := make([]TaskSpec, n)
				for i := range tasks {
					tasks[i] = TaskSpec{Preferred: []int{i % 4}, Run: func(tc *TaskContext) error { return nil }}
				}
				if err := rt.RunStage("placed", tasks); err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				defer mu.Unlock()
				for i := 0; i < n; i++ {
					if ranOn[i] != i%4 {
						t.Errorf("task %d ran on executor %d, want preferred %d", i, ranOn[i], i%4)
					}
				}
			})
		}
	}
}

// TestReducePreferencesRacesFailExecutor stresses placement scoring
// against concurrent executor failures and fresh writes (run under
// -race): no torn reads, and a preference computed after a failure
// completes never names the dead executor.
func TestReducePreferencesRacesFailExecutor(t *testing.T) {
	cfg := testCfg()
	cfg.Policy = ShuffleLocality
	rt, _ := New(cfg)
	id := rt.Shuffle().Register(4, 4)
	for m := 0; m < 4; m++ {
		putOwned(t, rt, id, m, m, 4, 50)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt.ReducePreferences([]int{id}, 4)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for m := 0; m < 200; m++ {
			chunks := make([]any, 4)
			for r := range chunks {
				chunks[r] = make([]int64, 10)
			}
			// Writes racing the failures may be rejected ("executor
			// lost") — that rejection is itself part of the contract.
			_ = rt.Shuffle().PutChunksFrom(id, m%4, (m+1)%4, chunks)
		}
	}()
	rt.FailExecutor(1)
	rt.FailExecutor(3)
	close(stop)
	wg.Wait()

	for r, p := range rt.ReducePreferences([]int{id}, 4) {
		for _, e := range p {
			if e == 1 || e == 3 {
				t.Fatalf("part %d prefers dead executor %d (prefs %v)", r, e, p)
			}
		}
	}
}
