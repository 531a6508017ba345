package engine

import (
	"fmt"
	"sync"
	"testing"
)

// putOwned writes one map partition's output for owner, with each of
// the reduceParts buckets holding an []int64 chunk of elems elements
// (8 bytes each), so effective-byte scores are exact.
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

// TestReducePreferencesSpilledOwner: a spilled partition is scored at
// disk cost, so a smaller resident owner outranks a larger owner whose
// bytes went to disk.
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
	// Effective bytes: owner 0 ≈ 12000×discount (~2000), owner 1 = 8000.
	// The resident owner leads and the spilled owner is below the 50% cut.
	if d := SpillFetchDiscount(); 12000*d >= 8000*preferShare {
		t.Fatalf("test geometry broken: discount %v makes spilled owner a near-peer", d)
	}
	prefs := rt.ReducePreferences([]int{id}, 1)
	if len(prefs[0]) != 1 || prefs[0][0] != 1 {
		t.Fatalf("prefs %v, want [1]: resident owner must outrank larger spilled owner", prefs[0])
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
