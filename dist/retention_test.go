package dist

import (
	"errors"
	"fmt"
	"net"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcmr/engine"
	"hpcmr/fault"
)

// These tests pin the generation chain's rolling window: a job holds
// only the generation it gathers and the one it writes, releases the
// rest on the driver and every executor, and rebuilds released
// generations from lineage when a loss needs them.

// logLines collects a cluster's formatted log lines.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(t *testing.T) func(format string, args ...any) {
	return func(format string, args ...any) {
		t.Logf(format, args...)
		l.mu.Lock()
		l.lines = append(l.lines, fmt.Sprintf(format, args...))
		l.mu.Unlock()
	}
}

// matching returns the submatches of every line re matches.
func (l *logLines) matching(re *regexp.Regexp) [][]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out [][]string
	for _, line := range l.lines {
		if m := re.FindStringSubmatch(line); m != nil {
			out = append(out, m)
		}
	}
	return out
}

var rebuildLine = regexp.MustCompile(`rebuilding generations (\d+)\.\.(\d+) from generation (-?\d+)`)

// TestGatherFromReleasedGenerationRebuilds: a stage gathering a
// generation the driver has released must not dispatch tasks with no
// locations — they would compute from nothing. The gather surfaces as
// missing map output, and the repair rebuilds the generation from
// lineage under a new ID.
func TestGatherFromReleasedGenerationRebuilds(t *testing.T) {
	var log logLines
	lc, err := StartLocal(LocalConfig{Executors: 3, Logf: log.logf(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	d := lc.Driver

	spec := JobSpec{Job: "keyed-sum", MapParts: 6, ReduceParts: 3, Records: 20_000, Keys: 32}
	gens := make([]int, 1)
	if _, err := d.runStage(spec, gens, 0); err != nil {
		t.Fatal(err)
	}
	released := gens[0]
	d.dropShuffle(released)

	results, err := d.runChain(spec, gens, 1)
	if err != nil {
		t.Fatalf("reduce over a released generation: %v", err)
	}
	defer d.dropShuffle(gens[0])
	if gens[0] == released {
		t.Fatalf("generation 0 still names released shuffle %d", released)
	}
	if got := log.matching(rebuildLine); len(got) != 1 || got[0][1] != "0" || got[0][2] != "0" || got[0][3] != "-1" {
		t.Errorf("rebuild log lines %v, want one rebuilding generation 0 from the map inputs", got)
	}
	job, _ := LookupJob(spec.Job)
	out, err := job.Merge(spec, results)
	if err != nil {
		t.Fatal(err)
	}
	checkKeyedSum(t, out, spec.Records, spec.Keys)
}

// TestPagerankLateLossRebuildsChain kills a preferred owner in the
// middle of superstep 6 of 8. By then generations 0..4 are released,
// so the lost part of generation 5 can only be recomputed: the repair
// must rebuild the chain from the map inputs, and the output must still
// be the reference, byte for byte.
func TestPagerankLateLossRebuildsChain(t *testing.T) {
	spec := JobSpec{Job: "pagerank", ReduceParts: 8, Records: 2048, Steps: 8}
	// 8 map tasks and 5 supersteps of 8 make 48; the crash fires as the
	// third task of superstep 6 completes.
	plan := fault.Plan{Events: []fault.Event{{Kind: fault.KindCrash, Node: 1, AfterTasks: 51}}}
	var log logLines
	lc, err := StartLocal(LocalConfig{Executors: 4, Plan: plan, Logf: log.logf(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	stages := watchStages(lc)
	start := time.Now()
	out, err := lc.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	checkPagerank(t, out, spec)

	rebuilds := log.matching(rebuildLine)
	fromMap := false
	for _, m := range rebuilds {
		lo, _ := strconv.Atoi(m[1])
		hi, _ := strconv.Atoi(m[2])
		if m[3] == "-1" && lo == 0 && hi >= 4 {
			fromMap = true
		}
	}
	if !fromMap {
		t.Errorf("rebuild log lines %v, want the released generations rebuilt from the map inputs", rebuilds)
	}
	stages.mu.Lock()
	defer stages.mu.Unlock()
	total := 0
	for _, n := range stages.tasks {
		total += n
	}
	t.Logf("recovery cost: %d tasks in %d stages for a %d-task chain, %v", total, len(stages.stages), 8*(spec.Steps+2), wall)
}

// residency samples every executor store's Len() while a job runs.
type residency struct {
	lc   *LocalCluster
	stop chan struct{}
	done chan struct{}
	max  []int
}

func watchResidency(lc *LocalCluster) *residency {
	r := &residency{lc: lc, stop: make(chan struct{}), done: make(chan struct{}), max: make([]int, len(lc.execs))}
	go func() {
		defer close(r.done)
		for {
			for i, e := range lc.execs {
				r.max[i] = max(r.max[i], e.store.Len())
			}
			select {
			case <-r.stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	return r
}

// finish stops sampling and returns each executor's largest Len().
func (r *residency) finish() []int {
	close(r.stop)
	<-r.done
	return r.max
}

// settled waits until every attempt the driver dispatched has reported
// back — a speculated loser included, so anything it registers has been
// registered — and then until the store of every executor the driver
// still counts live is empty.
func settled(t *testing.T, lc *LocalCluster, attempts *attemptCount) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !attempts.idle() {
		if time.Now().After(deadline) {
			t.Fatal("attempts still running 20 s after the job")
		}
		time.Sleep(time.Millisecond)
	}
	for i, e := range lc.execs {
		if lc.Driver.live.Dead(i) {
			continue
		}
		for e.store.Len() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("executor %d still holds %d shuffles after the job", i, e.store.Len())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if n := lc.Driver.rt.Shuffle().Len(); n != 0 {
		t.Errorf("driver still registers %d shuffles after the job", n)
	}
}

// attemptCount tracks task attempts started but not yet ended.
type attemptCount struct {
	mu      sync.Mutex
	running int
}

func (a *attemptCount) listener() engine.Listener {
	return engine.FuncListener{
		TaskStart: func(engine.TaskEvent) { a.mu.Lock(); a.running++; a.mu.Unlock() },
		TaskEnd:   func(engine.TaskEvent) { a.mu.Lock(); a.running--; a.mu.Unlock() },
	}
}

func (a *attemptCount) idle() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.running == 0
}

// speculate replaces the driver's runtime, before any job runs, with
// one that speculates stragglers and keeps the driver's fault injector
// (which decides hangs): the distributed driver never speculates, but
// the retention window must hold against the late attempts a
// speculated task leaves behind.
func speculate(t *testing.T, lc *LocalCluster, executors int) {
	t.Helper()
	rt, err := engine.New(engine.Config{Executors: executors, CoresPerExecutor: 2,
		Policy: engine.ShuffleLocality, Speculation: true, Faults: lc.Driver.rt.Config().Faults})
	if err != nil {
		t.Fatal(err)
	}
	old := lc.Driver.rt
	lc.Driver.rt = rt
	old.Close()
}

// TestPagerankResidency: through a 12-step job no executor ever holds
// more than three generations — the one gathered, the one written, and
// one whose release is in flight — and afterwards none. The bound holds
// through a crash and its repair, and against the late attempts of
// speculated stragglers: a hung map attempt that wakes after its
// generation was released must not register it again.
func TestPagerankResidency(t *testing.T) {
	const executors = 4
	spec := JobSpec{Job: "pagerank", ReduceParts: 8, Records: 2048, Steps: 12}
	for _, tc := range []struct {
		name      string
		plan      fault.Plan
		speculate bool
	}{
		{name: "clean"},
		{name: "crash", plan: fault.Plan{Events: []fault.Event{{Kind: fault.KindCrash, Node: 2, AfterTasks: 60}}}},
		{name: "slow-speculated", speculate: true,
			plan: fault.Plan{Events: []fault.Event{{Kind: fault.KindSlow, Node: 3, Duration: 0.3, Factor: 100}}}},
		{name: "hang-speculated", speculate: true,
			plan: fault.Plan{Events: []fault.Event{{Kind: fault.KindHang, Node: 3, Duration: 0.3}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lc, err := StartLocal(LocalConfig{Executors: executors, Plan: tc.plan, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			if tc.speculate {
				speculate(t, lc, executors)
			}
			var attempts attemptCount
			lc.Driver.rt.AddListener(attempts.listener())
			res := watchResidency(lc)
			out, err := lc.Run(spec)
			peak := res.finish()
			if err != nil {
				t.Fatal(err)
			}
			checkPagerank(t, out, spec)
			for i, n := range peak {
				if n > 3 {
					t.Errorf("executor %d held %d generations at once, want at most 3", i, n)
				}
			}
			if tc.speculate && lc.Driver.rt.Metrics().Speculations() == 0 {
				t.Error("no attempt was speculated; the case tests nothing")
			}
			settled(t, lc, &attempts)
		})
	}
}

// TestLateAttemptCannotResurrectReleasedGeneration: an executor that
// has applied a DropShuffle refuses a later put into that shuffle, so
// the store keeps nothing the driver will never release again.
func TestLateAttemptCannotResurrectReleasedGeneration(t *testing.T) {
	e := NewExecutor(ExecutorConfig{ID: 0})
	spec, err := JobSpec{Job: "pagerank", ReduceParts: 2, Records: 64}.withDefaults(1)
	if err != nil {
		t.Fatal(err)
	}
	const released = 7
	e.store.Drop(released)
	err = e.runBody(&RunTask{Spec: spec, Put: released, Part: 0}, &TaskDone{})
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Errorf("put into a released generation: err %v, want a refusal", err)
	}
	if n := e.store.Len(); n != 0 {
		t.Errorf("store holds %d shuffles after the late put, want 0", n)
	}
}

// TestFetchOfReleasedShuffleIsAMiss: a late attempt that gathers a
// generation its owner has already released gets missing map output,
// not a transient error — retried and then reported as an unreachable
// peer, it would have the driver declare a healthy executor lost.
func TestFetchOfReleasedShuffleIsAMiss(t *testing.T) {
	store := engine.NewShuffleStore()
	store.Drop(store.Register(2, 2))
	srv := NewShuffleServer(store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	var miss *engine.MapOutputMissingError
	if _, err := FetchPeerChunks(ln.Addr().String(), 1, 0, []int{1}); !errors.As(err, &miss) || miss.MapPart != 1 {
		t.Errorf("fetch of a released shuffle: err %v, want missing map partition 1", err)
	}
}
