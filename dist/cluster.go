package dist

import (
	"fmt"
	"sync"
	"time"

	"hpcmr/fault"
)

// LocalCluster is an in-process cluster: one driver plus N executors as
// goroutines, all talking over real loopback TCP. Tests, the chaos
// harness, and the perf scenario use it to exercise the full wire path
// without spawning processes; KillExecutor is the goroutine analogue of
// SIGKILL (connections and shuffle server drop with no goodbye).
type LocalCluster struct {
	Driver *Driver

	mu    sync.Mutex
	execs []*Executor
	errs  []error
	wg    sync.WaitGroup
}

// LocalConfig configures StartLocal.
type LocalConfig struct {
	// Executors is the cluster size (default 3).
	Executors int
	// CoresPerExecutor is passed to the driver (default 2).
	CoresPerExecutor int
	// Plan is the fault plan; crash events become KillExecutor calls.
	Plan fault.Plan
	// MemoryBudget bounds each executor's resident shuffle bytes
	// (spilling LRU map outputs to a private temp dir); 0 = unbounded.
	MemoryBudget int64
	// DisableLocality reverts the driver to FIFO placement — the A/B
	// toggle against the default shuffle-locality policy.
	DisableLocality bool
	// Logf receives driver and executor progress lines.
	Logf func(format string, args ...any)
}

// StartLocal brings up an in-process cluster and waits for every
// executor to register.
func StartLocal(cfg LocalConfig) (*LocalCluster, error) {
	if cfg.Executors <= 0 {
		cfg.Executors = 3
	}
	lc := &LocalCluster{}
	d, err := NewDriver(DriverConfig{
		Executors:        cfg.Executors,
		CoresPerExecutor: cfg.CoresPerExecutor,
		Plan:             cfg.Plan,
		Killer:           lc.KillExecutor,
		DisableLocality:  cfg.DisableLocality,
		Logf:             cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	lc.Driver = d
	lc.execs = make([]*Executor, cfg.Executors)
	lc.errs = make([]error, cfg.Executors)
	for i := 0; i < cfg.Executors; i++ {
		e := NewExecutor(ExecutorConfig{
			ID: i, DriverAddr: d.ControlAddr(),
			MemoryBudget: cfg.MemoryBudget, Logf: cfg.Logf,
		})
		lc.execs[i] = e
		lc.wg.Add(1)
		go func(i int, e *Executor) {
			defer lc.wg.Done()
			err := e.Run()
			lc.mu.Lock()
			lc.errs[i] = err
			lc.mu.Unlock()
		}(i, e)
	}
	if err := d.WaitReady(5 * time.Second); err != nil {
		lc.Close()
		return nil, err
	}
	return lc, nil
}

// Run runs one job on the cluster.
func (lc *LocalCluster) Run(spec JobSpec) ([]byte, error) {
	return lc.Driver.RunJob(spec)
}

// KillExecutor abruptly terminates executor id — the in-process stand-in
// for SIGKILL.
func (lc *LocalCluster) KillExecutor(id int) {
	lc.mu.Lock()
	var e *Executor
	if id >= 0 && id < len(lc.execs) {
		e = lc.execs[id]
	}
	lc.mu.Unlock()
	if e != nil {
		e.Kill()
	}
}

// ExecutorErr returns the exit error of executor id (nil until it
// exits, and for clean exits).
func (lc *LocalCluster) ExecutorErr(id int) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if id < 0 || id >= len(lc.errs) {
		return fmt.Errorf("dist: no executor %d", id)
	}
	return lc.errs[id]
}

// Close shuts the cluster down and waits for the executor goroutines.
func (lc *LocalCluster) Close() {
	lc.Driver.Shutdown()
	lc.mu.Lock()
	for _, e := range lc.execs {
		if e != nil {
			e.Kill()
		}
	}
	lc.mu.Unlock()
	lc.wg.Wait()
}
