package engine

import (
	"fmt"
	"sync"
	"testing"

	"hpcmr/internal/sched"
)

// TestRemoteBodiesKeepWindowInFlight: with remote bodies, a stage whose
// tasks have no preferences keeps exactly windowPerCore attempts per core
// dispatched on every executor — no fewer while work is pending, never
// more — under both policies that can fill window slots.
func TestRemoteBodiesKeepWindowInFlight(t *testing.T) {
	const execs, cores, tasks = 2, 2, 40
	slots := cores * windowPerCore
	for _, policy := range []PolicyKind{FIFO, ShuffleLocality} {
		t.Run(policy.String(), func(t *testing.T) {
			rt, err := New(Config{Executors: execs, CoresPerExecutor: cores, Policy: policy, RemoteBodies: true})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			var mu sync.Mutex
			running, peak := make([]int, execs), make([]int, execs)
			started := make(chan struct{}, tasks) // one send per body
			release := make(chan struct{})
			specs := make([]TaskSpec, tasks)
			for i := range specs {
				specs[i].Run = func(tc *TaskContext) error {
					mu.Lock()
					running[tc.Executor]++
					peak[tc.Executor] = max(peak[tc.Executor], running[tc.Executor])
					mu.Unlock()
					started <- struct{}{}
					<-release
					mu.Lock()
					running[tc.Executor]--
					mu.Unlock()
					return nil
				}
			}
			errc := make(chan error, 1)
			go func() { errc <- rt.RunStage("window", specs) }()
			for i := 0; i < execs*slots; i++ {
				<-started
			}
			mu.Lock()
			for e, n := range running {
				if n != slots {
					t.Errorf("executor %d runs %d attempts with every body blocked, want cores x window = %d", e, n, slots)
				}
			}
			mu.Unlock()
			close(release)
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			for e, n := range peak {
				if n != slots {
					t.Errorf("executor %d peaked at %d attempts in flight, want exactly %d", e, n, slots)
				}
			}
		})
	}
}

// TestWindowSlotsNeverSteal: on a stage whose every task prefers
// executor 0, executor 1 takes work only into its run slot. Each
// locality:remote launch is audited while its executor has fewer than
// CoresPerExecutor attempts in flight, and executor 0's window slots
// take only its own tasks.
func TestWindowSlotsNeverSteal(t *testing.T) {
	const cores = 1
	var mu sync.Mutex
	launched, finished := make([]int, 2), make([]int, 2)
	local, remote := make([]int, 2), make([]int, 2)
	var windowSteals []string
	rt, err := New(Config{
		Executors: 2, CoresPerExecutor: cores, Policy: ShuffleLocality, RemoteBodies: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.AddListener(FuncListener{Decision: func(e sched.AuditEvent) {
		if e.Policy != "locality" || (e.Kind != "local" && e.Kind != "remote") {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		// A body counts as finished before its slot is freed, so this
		// undercounts what is in flight: it can miss a window steal,
		// never invent one.
		if e.Kind == "remote" {
			remote[e.Node]++
			if launched[e.Node]-finished[e.Node] >= cores {
				windowSteals = append(windowSteals, fmt.Sprintf("node %d %s", e.Node, e.Detail))
			}
		} else {
			local[e.Node]++
		}
		launched[e.Node]++
	}})
	specs := make([]TaskSpec, 40)
	for i := range specs {
		specs[i] = TaskSpec{Preferred: []int{0}, Run: func(tc *TaskContext) error {
			mu.Lock()
			finished[tc.Executor]++
			mu.Unlock()
			return nil
		}}
	}
	if err := rt.RunStage("skewed", specs); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(windowSteals) > 0 {
		t.Errorf("remote launches into window slots: %v", windowSteals)
	}
	if remote[0] != 0 || local[1] != 0 {
		t.Errorf("executor 0 stole %d tasks and executor 1 ran %d of its own; every task prefers executor 0", remote[0], local[1])
	}
	if remote[1] != finished[1] || local[0] != finished[0] {
		t.Errorf("launches audited local %v / remote %v, tasks run per executor %v", local, remote, finished)
	}
	if remote[1] == 0 {
		t.Error("executor 1 stole nothing; the run slot path went untested")
	}
}
