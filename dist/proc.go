package dist

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"hpcmr/fault"
)

// ProcCluster is a cluster whose executors are real OS processes: the
// driver runs in the calling process, each executor is spawned through
// a caller-supplied command factory (typically the binary re-executing
// itself in executor mode), and crash-plan kills are real SIGKILLs.
// This is what the mrcluster CLI and the distributed integration test
// run on.
type ProcCluster struct {
	Driver *Driver

	logDir string

	mu    sync.Mutex
	procs []*procExec
}

// procExec tracks one executor process. A reaper goroutine Waits on it
// from the moment it starts, so a SIGKILLed executor is collected
// immediately instead of lingering as a zombie that still answers
// signal probes.
type procExec struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

func (p *procExec) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// ProcConfig configures StartProc.
type ProcConfig struct {
	// Executors is the cluster size (default 3).
	Executors int
	// CoresPerExecutor is passed to the driver (default 2).
	CoresPerExecutor int
	// Command builds the executor process: it must exec something that
	// runs an Executor with the given id against the driver control
	// address (e.g. `mrcluster executor -id N -driver ADDR`).
	Command func(id int, driverAddr string) *exec.Cmd
	// LogDir receives one executor-N.log per executor ("" for a temp
	// dir). CI uploads these as failure artifacts.
	LogDir string
	// Plan is the fault plan; crash events SIGKILL the executor process.
	Plan fault.Plan
	// ControlAddr/ClientAddr pin the driver's listen addresses.
	ControlAddr, ClientAddr string
	// Logf receives driver progress lines.
	Logf func(format string, args ...any)
}

// StartProc brings up a process cluster and waits for every executor
// process to register.
func StartProc(cfg ProcConfig) (*ProcCluster, error) {
	if cfg.Executors <= 0 {
		cfg.Executors = 3
	}
	if cfg.Command == nil {
		return nil, fmt.Errorf("dist: ProcConfig needs a Command factory")
	}
	logDir := cfg.LogDir
	if logDir == "" {
		var err error
		if logDir, err = os.MkdirTemp("", "hpcmr-dist-*"); err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}

	pc := &ProcCluster{logDir: logDir}
	d, err := NewDriver(DriverConfig{
		Executors:        cfg.Executors,
		CoresPerExecutor: cfg.CoresPerExecutor,
		ControlAddr:      cfg.ControlAddr,
		ClientAddr:       cfg.ClientAddr,
		Plan:             cfg.Plan,
		Killer:           pc.KillExecutor,
		Logf:             cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	pc.Driver = d
	pc.procs = make([]*procExec, cfg.Executors)
	for i := 0; i < cfg.Executors; i++ {
		logf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("executor-%d.log", i)))
		if err != nil {
			pc.Close()
			return nil, err
		}
		cmd := cfg.Command(i, d.ControlAddr())
		cmd.Stdout, cmd.Stderr = logf, logf
		if err := cmd.Start(); err != nil {
			logf.Close()
			pc.Close()
			return nil, fmt.Errorf("dist: spawn executor %d: %w", i, err)
		}
		p := &procExec{cmd: cmd, log: logf, done: make(chan struct{})}
		go func() {
			cmd.Wait()
			close(p.done)
		}()
		pc.mu.Lock()
		pc.procs[i] = p
		pc.mu.Unlock()
	}
	if err := d.WaitReady(10 * time.Second); err != nil {
		pc.Close()
		return nil, err
	}
	return pc, nil
}

// LogDir is where executor logs land.
func (pc *ProcCluster) LogDir() string { return pc.logDir }

// Pids lists the executor process IDs.
func (pc *ProcCluster) Pids() []int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pids := make([]int, len(pc.procs))
	for i, p := range pc.procs {
		if p != nil && p.cmd.Process != nil {
			pids[i] = p.cmd.Process.Pid
		}
	}
	return pids
}

// Run runs one job on the cluster.
func (pc *ProcCluster) Run(spec JobSpec) ([]byte, error) {
	return pc.Driver.RunJob(spec)
}

func (pc *ProcCluster) proc(id int) *procExec {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if id < 0 || id >= len(pc.procs) {
		return nil
	}
	return pc.procs[id]
}

// KillExecutor SIGKILLs executor id's process — the real mid-stage
// crash the fault plan's kill events map to.
func (pc *ProcCluster) KillExecutor(id int) {
	if p := pc.proc(id); p != nil && p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
}

// ExecutorAlive reports whether executor id's process is still running
// (reaped processes — including SIGKILLed ones — report false).
func (pc *ProcCluster) ExecutorAlive(id int) bool {
	p := pc.proc(id)
	return p != nil && !p.exited()
}

// WaitExecutorExit blocks until executor id's process has been reaped
// or the timeout elapses, reporting whether it exited. Event-driven:
// it selects on the reaper's done channel instead of polling the
// process table, so a kill is observed the moment Wait returns and a
// survivor fails fast at the deadline, deterministically.
func (pc *ProcCluster) WaitExecutorExit(id int, timeout time.Duration) bool {
	p := pc.proc(id)
	if p == nil {
		return true
	}
	select {
	case <-p.done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// ExecutorLog returns executor id's captured output so far — what
// failure reports attach when an executor misbehaves.
func (pc *ProcCluster) ExecutorLog(id int) string {
	data, err := os.ReadFile(filepath.Join(pc.logDir, fmt.Sprintf("executor-%d.log", id)))
	if err != nil {
		return fmt.Sprintf("<no executor %d log: %v>", id, err)
	}
	return string(data)
}

// Close shuts the driver down, reaps every executor process (SIGKILL if
// still running after a grace period), and closes the log files.
func (pc *ProcCluster) Close() {
	if pc.Driver != nil {
		pc.Driver.Shutdown()
	}
	pc.mu.Lock()
	procs := append([]*procExec(nil), pc.procs...)
	pc.mu.Unlock()
	for _, p := range procs {
		if p == nil {
			continue
		}
		select {
		case <-p.done:
		case <-time.After(2 * time.Second):
			if p.cmd.Process != nil {
				p.cmd.Process.Kill()
			}
			<-p.done
		}
		p.log.Close()
	}
}
