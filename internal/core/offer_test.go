package core

import (
	"fmt"
	"sync"
	"testing"

	"hpcmr/engine"
	"hpcmr/internal/cluster"
	"hpcmr/internal/metrics"
	"hpcmr/internal/sched"
)

// TestOfferOrderMatchesEngine: the simulator and the engine place a
// stage's first wave identically under every policy both run — the
// same slot-offer order (retries to the most idle node, then one slot
// per node per round-robin sweep) over the same policy. Each backend
// runs 4 nodes × 2 cores, and the wave is the tasks launched before any
// completes.
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
		{engine.ShuffleLocality, func() sched.Policy { return sched.NewShuffleLocality(nodes, 0.25) }},
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
					sim := simFirstWave(t, nodes, cores, p.sim(), infos)
					eng := engineFirstWave(t, nodes, cores, p.kind, infos)
					for i := range infos {
						if sim[i] != eng[i] {
							t.Fatalf("placement differs: simulator %v, engine %v (task -> node, -1 = not in the first wave)", sim, eng)
						}
					}
				})
			}
		}
	}
}

// simFirstWave runs one stage through runStage whose bodies never
// finish, so only the first wave launches, and returns task -> node.
func simFirstWave(t *testing.T, nodes, cores int, p sched.Policy, infos []sched.TaskInfo) []int {
	t.Helper()
	cfg := cluster.DefaultConfig(nodes)
	cfg.CoresPerNode = cores
	e := NewEngine(cluster.New(cfg), nil, nil)
	ranOn := make([]int, len(infos))
	for i := range ranOn {
		ranOn[i] = -1
	}
	runStage(e, "offer", p, infos, func(id, node int, launch float64, done func(sched.TaskStats)) {
		ranOn[id] = node
	}, func(*metrics.Timeline, int, int) {})
	e.C.Sim.Run()
	return ranOn
}

// engineFirstWave runs the same stage through engine.RunStage. Every
// body blocks until the whole first wave has started, so no completion
// re-offers a slot before the wave is placed; returns task -> executor.
func engineFirstWave(t *testing.T, nodes, cores int, kind engine.PolicyKind, infos []sched.TaskInfo) []int {
	t.Helper()
	rt, err := engine.New(engine.Config{Executors: nodes, CoresPerExecutor: cores, Policy: kind})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	wave := min(len(infos), nodes*cores)
	ranOn := make([]int, len(infos))
	for i := range ranOn {
		ranOn[i] = -1
	}
	var mu sync.Mutex
	started := 0
	release := make(chan struct{})
	tasks := make([]engine.TaskSpec, len(infos))
	for i, info := range infos {
		tasks[i] = engine.TaskSpec{Preferred: info.PreferredNodes, Run: func(tc *engine.TaskContext) error {
			mu.Lock()
			if started < wave {
				ranOn[tc.TaskID] = tc.Executor
				if started++; started == wave {
					close(release)
				}
			}
			mu.Unlock()
			<-release
			return nil
		}}
	}
	if err := rt.RunStage("offer", tasks); err != nil {
		t.Fatal(err)
	}
	return ranOn
}
