package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"hpcmr/engine"
	"hpcmr/internal/cluster"
	"hpcmr/internal/metrics"
	"hpcmr/internal/sched"
)

// victim is the node each backend loses once a quarter of the stage's
// tasks have completed.
const victim = 1

// TestOfferOrderMatchesEngine: the simulator and the engine place every
// attempt of a stage identically under every policy both run — first
// wave, later waves, and the retries of the tasks an executor loss takes
// down — when both see the same completion order: attempts complete one
// at a time, always the running attempt of the lowest task ID, and node
// victim is lost after a quarter of the tasks have completed. Each
// backend runs 4 nodes × 2 cores.
func TestOfferOrderMatchesEngine(t *testing.T) {
	const nodes, cores = 4, 2
	policies := []struct {
		kind engine.PolicyKind
		sim  func() sched.Policy
	}{
		{engine.FIFO, func() sched.Policy { return sched.NewFIFO() }},
		{engine.Locality, func() sched.Policy { return sched.NewLocalityPreferring() }},
		{engine.ELB, func() sched.Policy { return sched.NewELB(nodes, 0.25) }},
		{engine.CADThrottled, func() sched.Policy { return sched.NewCAD(sched.NewFIFO()) }},
		{engine.ShuffleLocality, func() sched.Policy { return sched.NewShuffleLocality(nodes) }},
	}
	prefs := []struct {
		name string
		of   func(i int) []int
	}{
		{"owner", func(i int) []int { return []int{i % nodes} }},
		{"none", func(int) []int { return nil }},
		{"mix", func(i int) []int {
			if i%3 == 2 {
				return nil
			}
			return []int{(3 * i) % nodes}
		}},
	}
	for _, p := range policies {
		for _, n := range []int{4, 8, 12} {
			for _, pref := range prefs {
				t.Run(fmt.Sprintf("%v/%d/%s", p.kind, n, pref.name), func(t *testing.T) {
					infos := make([]sched.TaskInfo, n)
					for i := range infos {
						infos[i] = sched.TaskInfo{ID: i, PreferredNodes: pref.of(i)}
					}
					sim := simPlacements(nodes, cores, p.sim(), infos)
					eng := enginePlacements(t, nodes, cores, p.kind, infos, sim.starts)
					if !slices.Equal(sim.order, eng.order) || !slices.Equal(sim.starts, eng.starts) {
						t.Fatalf("steps differ: simulator completed %v after starting %v attempts, engine %v after %v (-1 = the loss)",
							sim.order, sim.starts, eng.order, eng.starts)
					}
					lost := 0
					for i := range infos {
						if !slices.Equal(sim.on[i], eng.on[i]) {
							t.Fatalf("placement differs: simulator %v, engine %v (task -> nodes of its attempts)", sim.on, eng.on)
						}
						lost += len(sim.on[i]) - 1
					}
					if lost == 0 && n > nodes*cores/2 {
						t.Fatalf("the loss of node %d retried no attempt: %v", victim, sim.on)
					}
				})
			}
		}
	}
}

// placements is what one backend did under the script: per task, the
// nodes of its started attempts in order; the attempts started in all
// after each step; and the completions in order, each the task whose
// attempt completed (the lowest running one), or -1 for the loss, which
// takes two steps — the loss, then its zombies' late reports.
type placements struct {
	on     [][]int
	starts []int
	order  []int
}

// simPlacements runs the script through runStage; bodies finish only
// when the script completes them.
func simPlacements(nodes, cores int, p sched.Policy, infos []sched.TaskInfo) placements {
	cfg := cluster.DefaultConfig(nodes)
	cfg.CoresPerNode = cores
	e := NewEngine(cluster.New(cfg), nil, nil)
	pl := placements{on: make([][]int, len(infos))}
	type attempt struct {
		node int
		done func(sched.TaskStats)
	}
	running := map[int]attempt{}
	total, finished := 0, false
	runStage(e, "offer", p, infos, func(id, node int, launch float64, done func(sched.TaskStats)) {
		pl.on[id] = append(pl.on[id], node)
		total++
		running[id] = attempt{node, done}
	}, func(*metrics.Timeline, int, int) { finished = true })
	step := func() {
		e.C.Sim.Run()
		pl.starts = append(pl.starts, total)
	}
	step()
	for completed, crashed := 0, false; !finished; {
		if !crashed && completed == len(infos)/4 {
			crashed = true
			pl.order = append(pl.order, -1)
			e.crashNode(victim)
			step()
			for _, id := range sortedKeys(running) {
				if a := running[id]; a.node == victim {
					delete(running, id)
					a.done(sched.TaskStats{}) // a zombie's late report
				}
			}
			step()
			continue
		}
		id := sortedKeys(running)[0]
		a := running[id]
		delete(running, id)
		pl.order = append(pl.order, id)
		a.done(sched.TaskStats{})
		completed++
		step()
	}
	return pl
}

// enginePlacements runs the same script through engine.RunStage. Every
// body blocks until the script completes it; after each step the script
// waits until the engine has counted the completion and started as many
// attempts as the simulator had, so both see the same state.
func enginePlacements(t *testing.T, nodes, cores int, kind engine.PolicyKind, infos []sched.TaskInfo, want []int) placements {
	t.Helper()
	rt, err := engine.New(engine.Config{Executors: nodes, CoresPerExecutor: cores, Policy: kind})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var mu sync.Mutex
	pl := placements{on: make([][]int, len(infos))}
	type attempt struct {
		node    int
		release chan struct{}
	}
	running := map[int]attempt{}
	total := 0
	tasks := make([]engine.TaskSpec, len(infos))
	for i, info := range infos {
		tasks[i] = engine.TaskSpec{Preferred: info.PreferredNodes, Run: func(tc *engine.TaskContext) error {
			release := make(chan struct{})
			mu.Lock()
			pl.on[tc.TaskID] = append(pl.on[tc.TaskID], tc.Executor)
			total++
			running[tc.TaskID] = attempt{tc.Executor, release}
			mu.Unlock()
			<-release
			return nil
		}}
	}
	errc := make(chan error, 1)
	go func() { errc <- rt.RunStage("offer", tasks) }()
	waitUntil := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				mu.Lock()
				defer mu.Unlock()
				t.Fatalf("engine never %s; placement so far %v", what, pl.on)
			}
		}
	}
	// step waits for the simulator's start count, then lets any extra
	// launch start before it records the engine's.
	step := func(i int) {
		t.Helper()
		waitUntil(fmt.Sprintf("started %d attempts by step %d", want[i], i), func() bool {
			mu.Lock()
			defer mu.Unlock()
			return total >= want[i]
		})
		time.Sleep(time.Millisecond)
		mu.Lock()
		pl.starts = append(pl.starts, total)
		mu.Unlock()
	}
	step(0)
	completed, crashed := 0, false
	for i := 1; i < len(want); i++ {
		mu.Lock()
		if !crashed && completed == len(infos)/4 {
			crashed = true
			pl.order = append(pl.order, -1)
			mu.Unlock()
			rt.FailExecutor(victim)
			step(i)
			i++
			mu.Lock()
			for id, a := range running {
				if a.node == victim {
					delete(running, id)
					close(a.release)
				}
			}
			mu.Unlock()
			step(i)
			continue
		}
		id := sortedKeys(running)[0]
		a := running[id]
		delete(running, id)
		pl.order = append(pl.order, id)
		mu.Unlock()
		close(a.release)
		completed++
		waitUntil("counted a completion", func() bool { return rt.Metrics().TasksRun() == int64(completed) })
		step(i)
	}
	// Release anything the engine started beyond the script, so a
	// divergent run still returns and the comparison can name it.
	for deadline := time.Now().Add(10 * time.Second); ; {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
			return pl
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine stage did not finish; placement %v", pl.on)
		}
		mu.Lock()
		for id, a := range running {
			delete(running, id)
			close(a.release)
		}
		mu.Unlock()
	}
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
