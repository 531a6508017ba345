package dist

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcmr/engine"
	"hpcmr/fault"
)

// These tests pin what the single job path — every job a chain of
// shuffle generations, every task gather → call → put — must not move,
// plus the two failures the forked paths used to have.

func init() {
	// rotate-sum: keyed-sum with a superstep. Each step sums the
	// gathered values per key, then hands key k's doubled sum (plus the
	// step index) to key k+1. Integer arithmetic, so a serial reference
	// is exact; MapParts != ReduceParts exercises the chain's geometry
	// (generation 0 is MapParts wide, every later one ReduceParts).
	RegisterJob(Job{
		Name:   "rotate-sum",
		Map:    keyedSumMap,
		Reduce: keyedSumReduce,
		Merge:  mergeKVRuns,
		Step: func(spec JobSpec, step, part int, chunks []any) (MapOutput, error) {
			sums := make(map[int64]int64)
			for _, ch := range chunks {
				kvs, _ := ch.([]KV) // nil where a writer's bucket was empty
				for _, kv := range kvs {
					sums[kv.K] += kv.V
				}
			}
			buckets := make([][]KV, spec.ReduceParts)
			for k, v := range sums {
				nk := (k + 1) % spec.Keys
				r := int(nk % int64(spec.ReduceParts))
				buckets[r] = append(buckets[r], KV{K: nk, V: 2*v + int64(step)})
			}
			out := MapOutput{Buckets: make([]any, spec.ReduceParts)}
			for r, b := range buckets {
				if len(b) == 0 {
					continue
				}
				sort.Slice(b, func(i, j int) bool { return b[i].K < b[j].K })
				out.Buckets[r] = b
				out.Records += int64(len(b))
				out.Bytes += int64(len(b)) * 16
			}
			return out, nil
		},
	})
	// echo-order: buckets whose records are in no order at all, and a
	// reduce that holds every chunk it gathers against Map itself.
	RegisterJob(Job{
		Name: "echo-order",
		Map:  echoOrderMap,
		Reduce: func(spec JobSpec, part int, chunks []any) ([]byte, error) {
			if len(chunks) != spec.MapParts {
				return nil, fmt.Errorf("gathered %d chunks from %d map partitions", len(chunks), spec.MapParts)
			}
			for m, ch := range chunks {
				if put, _ := echoOrderMap(spec, m); !reflect.DeepEqual(ch, put.Buckets[part]) {
					return nil, fmt.Errorf("reduce %d: chunk %d is not what map partition %d put:\n got %v\nwant %v", part, m, m, ch, put.Buckets[part])
				}
			}
			return []byte{'0' + byte(part)}, nil
		},
		Merge: func(_ JobSpec, parts [][]byte) ([]byte, error) { return bytes.Join(parts, nil), nil },
	})
	// descending-bucket: a job that breaks the built-in reduce's
	// contract — map partition 2 emits its buckets in descending order.
	RegisterJob(Job{
		Name: "descending-bucket",
		Map: func(spec JobSpec, part int) (MapOutput, error) {
			out := MapOutput{Buckets: make([]any, spec.ReduceParts), Records: 2 * int64(spec.ReduceParts)}
			for r := range out.Buckets {
				if out.Buckets[r] = []KV{{4, 1}, {9, 1}}; part == 2 {
					out.Buckets[r] = []KV{{9, 1}, {4, 1}}
				}
			}
			return out, nil
		},
		Reduce: keyedSumReduce,
		Merge:  mergeKVRuns,
	})
	// panic-map: a job with a deterministic bug in one map partition.
	RegisterJob(Job{
		Name: "panic-map",
		Map: func(spec JobSpec, part int) (MapOutput, error) {
			if part == 0 {
				panic("bug in partition 0")
			}
			return MapOutput{Buckets: make([]any, spec.ReduceParts)}, nil
		},
		Reduce: func(JobSpec, int, []any) ([]byte, error) { return nil, nil },
		Merge:  func(JobSpec, [][]byte) ([]byte, error) { return nil, nil },
	})
	// empty-reduce: a filtering job whose reduce partition 1 keeps
	// nothing and says so with zero bytes.
	RegisterJob(Job{
		Name: "empty-reduce",
		Map: func(spec JobSpec, part int) (MapOutput, error) {
			return MapOutput{Buckets: make([]any, spec.ReduceParts)}, nil
		},
		Reduce: func(spec JobSpec, part int, chunks []any) ([]byte, error) {
			if part == 1 {
				return []byte{}, nil
			}
			return []byte{'a' + byte(part)}, nil
		},
		Merge: func(spec JobSpec, parts [][]byte) ([]byte, error) {
			if len(parts) != spec.ReduceParts {
				return nil, fmt.Errorf("merge got %d parts, want %d", len(parts), spec.ReduceParts)
			}
			return bytes.Join(parts, []byte{','}), nil
		},
	})
}

// echoOrderMap puts, per bucket, up to 200 records with keys repeating
// and in random order; one bucket in four is nil.
func echoOrderMap(spec JobSpec, part int) (MapOutput, error) {
	out := MapOutput{Buckets: make([]any, spec.ReduceParts)}
	rng := rand.New(rand.NewSource(int64(part)))
	for r := range out.Buckets {
		if (part+r)%4 == 0 {
			continue
		}
		b := make([]KV, 1+rng.Intn(200))
		for i := range b {
			b[i] = KV{K: rng.Int63n(50) - 25, V: rng.Int63()}
		}
		out.Buckets[r] = b
		out.Records += int64(len(b))
		out.Bytes += int64(len(b)) * 16
	}
	return out, nil
}

// stageLog records, through the driver runtime's listener, every stage
// that started (name and task count) and every successful task.
type stageLog struct {
	mu     sync.Mutex
	stages []string
	tasks  []int
	done   []engine.TaskEvent
}

func watchStages(lc *LocalCluster) *stageLog {
	l := &stageLog{}
	lc.Driver.Runtime().AddListener(engine.FuncListener{
		StageStart: func(name string, tasks int) {
			l.mu.Lock()
			l.stages, l.tasks = append(l.stages, name), append(l.tasks, tasks)
			l.mu.Unlock()
		},
		TaskEnd: func(e engine.TaskEvent) {
			if e.Failed {
				return
			}
			l.mu.Lock()
			l.done = append(l.done, e)
			l.mu.Unlock()
		},
	})
	return l
}

// TestStageNameContract: the driver names its stages <job>-map-<id>,
// <job>-step<g>-<id> and <job>-reduce-<id>, <id> being the shuffle the
// stage writes (the one it gathers, for the reduce). This is an
// interface, not a log format: e2ebench/trace.go:stageKey parses these
// names to attribute task and fetch spans to a job's stages.
func TestStageNameContract(t *testing.T) {
	lc, err := StartLocal(LocalConfig{Executors: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	log := watchStages(lc)
	if _, err := lc.Run(testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Run(JobSpec{Job: "pagerank", ReduceParts: 4, Records: 512, Steps: 3}); err != nil {
		t.Fatal(err)
	}
	// A fresh driver issues shuffle IDs from 1: the one-shot job takes
	// one, the three-step job the next four.
	want := []string{
		"keyed-sum-map-1", "keyed-sum-reduce-1",
		"pagerank-map-2", "pagerank-step1-3", "pagerank-step2-4", "pagerank-step3-5", "pagerank-reduce-5",
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if !reflect.DeepEqual(log.stages, want) {
		t.Fatalf("stages:\n got %v\nwant %v", log.stages, want)
	}
}

// rotateSumReference is rotate-sum computed serially.
func rotateSumReference(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	sums := make(map[int64]int64)
	for i := int64(0); i < spec.Records; i++ {
		sums[i%spec.Keys] += i
	}
	for step := 1; step <= spec.Steps; step++ {
		next := make(map[int64]int64, len(sums))
		for k, v := range sums {
			next[(k+1)%spec.Keys] = 2*v + int64(step)
		}
		sums = next
	}
	return refKVRun(sums)
}

// TestDegenerateChain: a job with a Step function is the same chain at
// every length. Steps == 0 is the chain of length one — it runs no
// step task at all, not a step stage of zero effect — and each length
// matches the serial reference byte for byte.
func TestDegenerateChain(t *testing.T) {
	for _, steps := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("steps-%d", steps), func(t *testing.T) {
			lc, err := StartLocal(LocalConfig{Executors: 3, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			log := watchStages(lc)
			spec := JobSpec{Job: "rotate-sum", MapParts: 5, ReduceParts: 3, Records: 10_000, Keys: 17, Steps: steps}
			out, err := lc.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if want := rotateSumReference(t, spec); !bytes.Equal(out, want) {
				t.Fatalf("output differs from the serial reference: %d vs %d bytes", len(out), len(want))
			}
			stepTasks := 0
			log.mu.Lock()
			for _, e := range log.done {
				if strings.Contains(e.Stage, "-step") {
					stepTasks++
				}
			}
			log.mu.Unlock()
			if want := steps * spec.ReduceParts; stepTasks != want {
				t.Errorf("step tasks run: got %d, want %d", stepTasks, want)
			}
		})
	}
}

// TestOneShotRecoveryRerunsOnlyLostMaps: a job without supersteps
// recovers through the same generation-chain repair as an iterative
// one. The crash fires as the last map task completes, so the reduce
// stage finds the victim's map output gone; the repair must re-run
// exactly the partitions the victim owned — not the whole map stage —
// and the result must match a clean run byte for byte.
func TestOneShotRecoveryRerunsOnlyLostMaps(t *testing.T) {
	spec := JobSpec{Job: "keyed-sum", MapParts: 12, ReduceParts: 3, Records: 20_000, Keys: 32}
	clean, err := StartLocal(LocalConfig{Executors: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Run(spec)
	clean.Close()
	if err != nil {
		t.Fatal(err)
	}

	const victim = 1
	plan := fault.Plan{Events: []fault.Event{{Kind: fault.KindCrash, Node: victim, AfterTasks: spec.MapParts}}}
	lc, err := StartLocal(LocalConfig{Executors: 3, Plan: plan, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	log := watchStages(lc)
	got, err := lc.Run(spec)
	if err != nil {
		t.Fatalf("job under kill plan: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered output differs from clean run: %d vs %d bytes", len(got), len(want))
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	// The first wave fills every core of every executor, so the victim
	// owned some of the twelve partitions when it died.
	owned := 0
	for _, e := range log.done[:spec.MapParts] {
		if e.Stage != "keyed-sum-map-1" {
			t.Fatalf("task %d of the first %d finished in stage %s, want the map stage", e.TaskID, spec.MapParts, e.Stage)
		}
		if e.Executor == victim {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("victim owned no map partition; the test cannot observe a repair")
	}
	var reruns []int
	for i, name := range log.stages[1:] {
		if name == "keyed-sum-map-1" {
			reruns = append(reruns, log.tasks[i+1])
		}
	}
	if !reflect.DeepEqual(reruns, []int{owned}) {
		t.Errorf("map re-runs (tasks per repair stage): got %v, want one stage of the victim's %d partitions (stages %v)",
			reruns, owned, log.stages)
	}
}

// TestJobPanicFailsAttemptNotCluster: a panic in a job function is that
// attempt's failure. Unrecovered it kills the executor process; the
// driver then takes the death for a loss, requeues the task on a
// survivor, which panics too — one buggy partition would take down the
// whole cluster (and, in process, the test binary).
func TestJobPanicFailsAttemptNotCluster(t *testing.T) {
	lc, err := StartLocal(LocalConfig{Executors: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := lc.Run(JobSpec{Job: "panic-map", MapParts: 4, ReduceParts: 2})
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "task panic") {
			t.Fatalf("got %v, want a task-panic error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job with a panicking map hung")
	}
	if alive := lc.Driver.Runtime().AliveExecutors(); alive != 3 {
		t.Errorf("alive executors after the failed job: got %d, want 3", alive)
	}
	spec := testSpec()
	out, err := lc.Run(spec)
	if err != nil {
		t.Fatalf("job after the panicking one: %v", err)
	}
	checkKeyedSum(t, out, spec.Records, spec.Keys)
}

// TestBucketOrderSurvivesShuffle: what a reduce task gathers is, chunk
// by chunk in map-partition order, what Map put — across peer fetches,
// and with every chunk evicted to a spill file and restored. The
// built-in reduces merge on the strength of this; here it is tested
// where it could break.
func TestBucketOrderSurvivesShuffle(t *testing.T) {
	spec := JobSpec{Job: "echo-order", MapParts: 7, ReduceParts: 5}
	for _, budget := range []int64{0, 1} {
		lc, err := StartLocal(LocalConfig{Executors: 3, MemoryBudget: budget, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var remote int64
		lc.Driver.Runtime().AddListener(engine.FuncListener{Fetch: func(e engine.FetchEvent) {
			if e.Remote {
				mu.Lock()
				remote += e.Records
				mu.Unlock()
			}
		}})
		out, err := lc.Run(spec)
		if err != nil || string(out) != "01234" {
			t.Errorf("budget %d: got %q, %v", budget, out, err)
		}
		var restores int64
		for _, e := range lc.execs {
			st, _ := e.store.SpillStats()
			restores += st.Restores
		}
		lc.Close()
		if remote == 0 || (budget > 0) != (restores > 0) {
			t.Errorf("budget %d: %d records fetched from peers, %d spill restores: the path under test did not run", budget, remote, restores)
		}
	}
}

// TestUnorderedBucketFailsJobPromptly: a Map that hands the built-in
// reduce a bucket out of order is a deterministic bug in the job; the
// job fails with the error naming the map partition and the two keys,
// without a round of lineage recovery, and costs no executor.
func TestUnorderedBucketFailsJobPromptly(t *testing.T) {
	var mu sync.Mutex
	repairs := 0
	lc, err := StartLocal(LocalConfig{Executors: 3, Logf: func(format string, args ...any) {
		if strings.Contains(format, "repairing") {
			mu.Lock()
			repairs++
			mu.Unlock()
		}
		t.Logf(format, args...)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := Submit(lc.Driver.ClientAddr(), JobSpec{Job: "descending-bucket", MapParts: 4, ReduceParts: 2})
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "chunk 2 is not strictly ascending by key: 9 then 4") {
			t.Fatalf("got %v, want the reduce's error naming chunk 2", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job with a descending bucket hung")
	}
	mu.Lock()
	defer mu.Unlock()
	if alive := lc.Driver.Runtime().AliveExecutors(); alive != 3 || repairs != 0 {
		t.Errorf("after the failed job: %d of 3 executors alive, %d lineage repairs", alive, repairs)
	}
}

// TestEmptyReduceOutputIsAResult: gob drops a zero-length
// TaskDone.Result, so an empty reduce output reaches the driver as nil.
// That is a partition with nothing in it, not a task that never ran.
func TestEmptyReduceOutputIsAResult(t *testing.T) {
	lc, err := StartLocal(LocalConfig{Executors: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	out, err := lc.Run(JobSpec{Job: "empty-reduce", MapParts: 2, ReduceParts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "a,,c" {
		t.Fatalf("got %q, want %q", out, "a,,c")
	}
}

// TestLossWindowCannotBurnRecoveries forces the interleaving behind the
// TestPagerankChaosSweep livelock: a gather stage runs while the driver
// is in the middle of an executor's loss path — the test parks that
// path on its first log line and runs the reduce stage before letting
// it go. Whatever runTask refuses as a dead owner must by then be
// missing in the shuffle store; otherwise the repair finds nothing to
// re-run and the stage spends every recovery round in microseconds.
func TestLossWindowCannotBurnRecoveries(t *testing.T) {
	const victim = 2
	parked, release := make(chan struct{}), make(chan struct{})
	var park, unpark sync.Once
	lc, err := StartLocal(LocalConfig{Executors: 3, Logf: func(format string, args ...any) {
		t.Logf(format, args...)
		if strings.HasPrefix(format, "executor %d lost") {
			park.Do(func() { close(parked); <-release })
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	defer unpark.Do(func() { close(release) })
	d := lc.Driver

	spec := JobSpec{Job: "keyed-sum", MapParts: 12, ReduceParts: 3, Records: 20_000, Keys: 32}
	gens := []int{d.rt.Shuffle().Register(spec.MapParts, spec.ReduceParts)}
	parts := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		return p
	}
	if _, err := d.runStage(spec, gens, 0, parts(spec.MapParts)); err != nil {
		t.Fatal(err)
	}
	owned := 0
	for _, o := range d.rt.Shuffle().Owners(gens[0]) {
		if o == victim {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("victim owns no map partition; the test cannot open the window")
	}

	gone := make(chan struct{})
	go func() {
		defer close(gone)
		d.executorGone(victim, "test")
	}()
	<-parked
	results, err := d.runStage(spec, gens, 1, parts(spec.ReduceParts))
	unpark.Do(func() { close(release) })
	<-gone
	if err != nil {
		t.Fatalf("reduce stage inside the loss window: %v", err)
	}
	job, _ := LookupJob(spec.Job)
	out, err := job.Merge(spec, results)
	if err != nil {
		t.Fatal(err)
	}
	checkKeyedSum(t, out, spec.Records, spec.Keys)
}

// TestCorruptSpillOnLiveExecutorRecomputes: the third level of the read
// path — memory → spill file → lineage — must hold on a cluster too. A
// spill file damaged after the map stage makes its (live) owner drop
// the partition and answer the gather with a miss; the driver's
// placeholder row still names that owner, so unless the miss takes the
// row with it the repair finds nothing to re-run and the job dies after
// maxJobRecoveries empty rounds. Truncated, bit-flipped or deleted, the
// job must return the unbudgeted run's bytes, re-run exactly the one
// map task, and the owner must log exactly one spill-corrupt.
func TestCorruptSpillOnLiveExecutorRecomputes(t *testing.T) {
	spec := JobSpec{Job: "keyed-sum", MapParts: 4, ReduceParts: 2, Records: 20_000, Keys: 32}
	clean, err := StartLocal(LocalConfig{Executors: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Run(spec)
	clean.Close()
	if err != nil {
		t.Fatal(err)
	}

	for name, damage := range map[string]func(path string) error{
		"truncate": func(path string) error { return os.Truncate(path, 10) },
		"bit-flip": func(path string) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			raw[len(raw)-1] ^= 0x10 // inside the last bucket's frame
			return os.WriteFile(path, raw, 0o644)
		},
		"delete": os.Remove,
	} {
		t.Run(name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp) // executors make their spill dirs under it
			var mu sync.Mutex
			corrupt := 0
			lc, err := StartLocal(LocalConfig{Executors: 2, MemoryBudget: 1, Logf: func(format string, args ...any) {
				t.Logf(format, args...)
				if strings.Contains(fmt.Sprintf(format, args...), "spill-corrupt") {
					mu.Lock()
					corrupt++
					mu.Unlock()
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			log := watchStages(lc)
			var once sync.Once
			lc.Driver.Runtime().AddListener(engine.FuncListener{StageEnd: func(m engine.StageMetrics) {
				if !strings.Contains(m.Name, "-map-") {
					return
				}
				once.Do(func() {
					files, _ := filepath.Glob(filepath.Join(tmp, "hpcmr-exec*-spill-*", "*.spill"))
					if len(files) != spec.MapParts {
						t.Errorf("found %d spill files after the map stage, want %d", len(files), spec.MapParts)
						return
					}
					if err := damage(files[0]); err != nil {
						t.Error(err)
					}
				})
			}})
			got, err := lc.Run(spec)
			if err != nil {
				t.Fatalf("job over a damaged spill file: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recovered output differs from the unbudgeted run: %d vs %d bytes", len(got), len(want))
			}
			log.mu.Lock()
			defer log.mu.Unlock()
			var reruns []int
			for i, stage := range log.stages[1:] {
				if strings.Contains(stage, "-map-") {
					reruns = append(reruns, log.tasks[i+1])
				}
			}
			if !reflect.DeepEqual(reruns, []int{1}) {
				t.Errorf("map re-runs (tasks per repair stage): got %v, want one stage of one task (stages %v)", reruns, log.stages)
			}
			mu.Lock()
			defer mu.Unlock()
			if corrupt != 1 {
				t.Errorf("%d spill-corrupt audit lines, want 1", corrupt)
			}
		})
	}
}
