package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hpcmr/dist"
)

// executorMain is the hidden mode the spawned executor processes run:
// a plain dist.Executor that, when asked, writes the spans its traced
// jobs recorded once the driver has shut it down.
func executorMain(args []string) int {
	fs := flag.NewFlagSet("executor", flag.ContinueOnError)
	id := fs.Int("id", -1, "executor ID")
	driver := fs.String("driver", "", "driver control address")
	budget := fs.Int64("memory-budget", 0, "resident shuffle bytes before spilling (0 = unbounded)")
	spillDir := fs.String("spill-dir", "", "spill file directory")
	spans := fs.String("spans", "", "write recorded spans to this file on shutdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	e := dist.NewExecutor(dist.ExecutorConfig{
		ID: *id, DriverAddr: *driver, MemoryBudget: *budget, SpillDir: *spillDir,
		Logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	})
	if err := e.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "executor:", err)
		return 1
	}
	if *spans != "" {
		if err := writeSpans(*spans, rec.take()); err != nil {
			fmt.Fprintln(os.Stderr, "executor:", err)
			return 1
		}
	}
	return 0
}

// round is what one fresh cluster measured.
type round struct {
	// setupS is StartProc -> WaitReady -> warm-up job verified: what a
	// user pays per fresh cluster.
	setupS float64
	// jobS holds the Submit-to-result seconds of each verified job.
	jobS []float64
	// submitS is the time spent inside Submit over every attempted
	// measured job, failed ones included.
	submitS           float64
	attempted, failed int
	// rssMB is the sum of VmHWM over the executor processes and this
	// one (driver and client), read before the cluster closes.
	rssMB    float64
	firstErr error

	// Traced rounds only.
	spans   []span
	fetched map[int]*fetchBytes
}

// roundPlan bounds one round's measured loop: it runs jobs until slice
// has elapsed and at least minJobs have been attempted.
type roundPlan struct {
	round   int
	slice   time.Duration
	minJobs int
	traced  bool
}

// runRound starts a fresh 2x1 process cluster in dir, warms it up and
// drives it closed-loop from one client: the next job is submitted
// only after the previous result has been verified.
func runRound(w workload, spec dist.JobSpec, v *verifier, plan roundPlan, dir string) (*round, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spanFile := func(id int) string { return filepath.Join(dir, fmt.Sprintf("spans-%d.jsonl", id)) }
	r := &round{}
	// Restart this process's VmHWM at its current resident size, so the
	// round's driver-side peak is its own. Best effort: where the kernel
	// refuses, the peak is the process's lifetime peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)

	setupStart := time.Now()
	pc, err := dist.StartProc(dist.ProcConfig{
		Executors:        executors,
		CoresPerExecutor: coresPerExecutor,
		LogDir:           filepath.Join(dir, "logs"),
		Command: func(id int, driverAddr string) *exec.Cmd {
			argv := []string{"executor", "-id", strconv.Itoa(id), "-driver", driverAddr,
				"-spill-dir", filepath.Join(dir, "spill")}
			if w.budget > 0 {
				argv = append(argv, "-memory-budget", strconv.FormatInt(w.budget, 10))
			}
			if plan.traced {
				argv = append(argv, "-spans", spanFile(id))
			}
			return exec.Command(self, argv...)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("%s: start cluster: %w", w.name, err)
	}
	defer pc.Close() // idempotent; the traced path closes early to collect spans

	var tracer *driverTracer
	if plan.traced {
		rec.take() // drop anything a previous round left behind
		tracer = newDriverTracer(tracedPrefix + spec.Job)
		pc.Driver.Runtime().AddListener(tracer.listener())
	}

	// submit runs one job and returns its Submit-to-result seconds; the
	// result is verified before the time is handed back.
	submit := func(job int) (float64, error) {
		s := spec
		if plan.traced {
			s = tracedSpec(spec, job)
			tracer.job.Store(int64(job))
		}
		start := time.Now()
		out, err := dist.Submit(pc.Driver.ClientAddr(), s)
		end := time.Now()
		if plan.traced && err == nil {
			rec.add(span{ID: fmt.Sprintf("j%d", job), Name: spanSubmit, Job: job, Start: stamp(start), End: stamp(end)})
		}
		if err == nil {
			err = v.check(out)
		}
		return end.Sub(start).Seconds(), err
	}
	fail := func(err error) {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %w", w.name, err)
		}
	}

	r.attempted++
	if _, err := submit(0); err != nil {
		fail(fmt.Errorf("warm-up job: %w", err))
	}
	r.setupS = time.Since(setupStart).Seconds()

	measureStart := time.Now()
	for job := 1; job <= plan.minJobs || time.Since(measureStart) < plan.slice; job++ {
		r.attempted++
		secs, err := submit(job)
		r.submitS += secs
		if err != nil {
			fail(fmt.Errorf("job %d: %w", job, err))
			continue
		}
		r.jobS = append(r.jobS, secs)
	}

	for _, pid := range append(pc.Pids(), os.Getpid()) {
		mb, err := peakRSSMB(pid)
		if err != nil {
			return nil, fmt.Errorf("%s: peak rss: %w", w.name, err)
		}
		r.rssMB += mb
	}

	if plan.traced {
		pc.Close() // executors write their spans on shutdown
		r.spans = rec.take()
		for id := 0; id < executors; id++ {
			s, err := readSpans(spanFile(id))
			if err != nil {
				return nil, fmt.Errorf("%s: executor %d spans: %w\n%s", w.name, id, err, pc.ExecutorLog(id))
			}
			r.spans = append(r.spans, s...)
		}
		// Job ids restart with every cluster; the round makes span ids
		// unique within a run.
		prefix := fmt.Sprintf("r%d/", plan.round)
		for i := range r.spans {
			r.spans[i].ID = prefix + r.spans[i].ID
			if r.spans[i].Parent != "" {
				r.spans[i].Parent = prefix + r.spans[i].Parent
			}
		}
		r.fetched = tracer.fetched
	}
	return r, nil
}

// peakRSSMB reads a process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("pid %d: VmHWM %q: %w", pid, rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("pid %d: no VmHWM in status", pid)
}
