package dist

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcmr/engine"
	"hpcmr/fault"
	"hpcmr/internal/spill"
	"hpcmr/rdd"
)

func testSpec() JobSpec {
	return JobSpec{Job: "keyed-sum", MapParts: 6, ReduceParts: 3, Records: 20_000, Keys: 32}
}

func checkKeyedSum(t *testing.T, out []byte, records, keys int64) {
	t.Helper()
	kvs, err := DecodeKVs(out)
	if err != nil {
		t.Fatalf("decode result: %v", err)
	}
	want := KeyedSumGolden(records, keys)
	if int64(len(kvs)) != keys {
		t.Fatalf("got %d keys, want %d", len(kvs), keys)
	}
	for _, kv := range kvs {
		if want[kv.K] != kv.V {
			t.Fatalf("key %d: got %d, want %d", kv.K, kv.V, want[kv.K])
		}
	}
}

func TestLocalClusterKeyedSum(t *testing.T) {
	lc, err := StartLocal(LocalConfig{Executors: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	spec := testSpec()
	out, err := lc.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkKeyedSum(t, out, spec.Records, spec.Keys)

	// Map-side combining makes total shuffle movement deterministic:
	// every map partition spans all keys, so MapParts*Keys records of 16
	// bytes each cross the shuffle.
	m := lc.Driver.Runtime().Metrics()
	wantRecords := int64(spec.MapParts) * spec.Keys
	if got := m.ShuffleRecords(); got != wantRecords {
		t.Errorf("shuffle records: got %d, want %d", got, wantRecords)
	}
	if got := int64(m.ShuffleBytes()); got != wantRecords*16 {
		t.Errorf("shuffle bytes: got %d, want %d", got, wantRecords*16)
	}
}

// TestLocalClusterMemoryBudget runs the same job on a cluster whose
// executors hold almost nothing resident: every map output spills to
// the executor's local disk and reduces read back through spill files.
// The output must be byte-identical to an unbounded cluster's.
func TestLocalClusterMemoryBudget(t *testing.T) {
	spec := testSpec()
	runWith := func(budget int64) []byte {
		lc, err := StartLocal(LocalConfig{Executors: 3, MemoryBudget: budget, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer lc.Close()
		out, err := lc.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	unbounded := runWith(0)
	tiny := runWith(1)
	if !bytes.Equal(unbounded, tiny) {
		t.Fatalf("1-byte budget output diverged: %d vs %d bytes", len(tiny), len(unbounded))
	}
	checkKeyedSum(t, tiny, spec.Records, spec.Keys)
}

func TestLocalClusterWordcount(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "in.txt")
	text := "the quick brown fox\njumps over THE lazy dog\nthe fox again\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	// The second run spills every map output: string-keyed chunks take
	// the spill file's gob fallback, and must come back the same.
	var out []byte
	for _, budget := range []int64{0, 1} {
		lc, err := StartLocal(LocalConfig{Executors: 2, MemoryBudget: budget, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		got, err := lc.Run(JobSpec{Job: "wordcount", Path: path, MapParts: 3, ReduceParts: 2})
		lc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if budget > 0 && !bytes.Equal(got, out) {
			t.Fatalf("1-byte budget output diverged: %d vs %d bytes", len(got), len(out))
		}
		out = got
	}
	kvs, err := DecodeSKVs(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, w := range strings.Fields(strings.ToLower(text)) {
		want[w]++
	}
	if len(kvs) != len(want) {
		t.Fatalf("got %d words, want %d", len(kvs), len(want))
	}
	for _, kv := range kvs {
		if want[kv.K] != kv.V {
			t.Errorf("word %q: got %d, want %d", kv.K, kv.V, want[kv.K])
		}
	}
}

// TestLocalClusterKillRecovery is the in-process half of the issue's
// acceptance bar: an executor dies abruptly mid-job (connections and
// shuffle server drop, no goodbye) and lineage recovery must still
// produce output byte-identical to a fault-free run.
func TestLocalClusterKillRecovery(t *testing.T) {
	spec := testSpec()

	clean, err := StartLocal(LocalConfig{Executors: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Run(spec)
	clean.Close()
	if err != nil {
		t.Fatal(err)
	}

	plan := fault.Plan{Events: []fault.Event{{Kind: fault.KindCrash, Node: 1, AfterTasks: 3}}}
	lc, err := StartLocal(LocalConfig{Executors: 3, Plan: plan, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	got, err := lc.Run(spec)
	if err != nil {
		t.Fatalf("job under kill plan: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered output differs from clean run: %d vs %d bytes", len(got), len(want))
	}
	checkKeyedSum(t, got, spec.Records, spec.Keys)
	if alive := lc.Driver.Runtime().AliveExecutors(); alive != 2 {
		t.Errorf("alive executors after kill: got %d, want 2", alive)
	}
}

// TestLocalClusterTransientFaults ships slow/fetch-loss/task-fail
// events to the executors and checks the job still completes correctly.
func TestLocalClusterTransientFaults(t *testing.T) {
	spec := testSpec()
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.KindTaskFail, Node: 0, At: 0, Count: 2},
		{Kind: fault.KindFetchLoss, Node: 1, At: 0, Count: 2},
		{Kind: fault.KindSlow, Node: 2, At: 0, Duration: 0.5, Factor: 1.5},
	}}
	lc, err := StartLocal(LocalConfig{Executors: 3, Plan: plan, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	out, err := lc.Run(spec)
	if err != nil {
		t.Fatalf("job under transient plan: %v", err)
	}
	checkKeyedSum(t, out, spec.Records, spec.Keys)
}

func TestDuplicateExecutorIDRejected(t *testing.T) {
	lc, err := StartLocal(LocalConfig{Executors: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	dup := NewExecutor(ExecutorConfig{ID: 0, DriverAddr: lc.Driver.ControlAddr()})
	err = dup.Run()
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate registration: got %v, want rejection", err)
	}
}

func TestSubmitOverClientPlane(t *testing.T) {
	lc, err := StartLocal(LocalConfig{Executors: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	spec := testSpec()
	out, err := Submit(lc.Driver.ClientAddr(), spec)
	if err != nil {
		t.Fatal(err)
	}
	checkKeyedSum(t, out, spec.Records, spec.Keys)
}

func TestShutdownClusterStopsExecutors(t *testing.T) {
	lc, err := StartLocal(LocalConfig{Executors: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := ShutdownCluster(lc.Driver.ClientAddr()); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { lc.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("executors did not exit after ShutdownCluster")
	}
	for i := 0; i < 2; i++ {
		if err := lc.ExecutorErr(i); err != nil {
			t.Errorf("executor %d exit: %v", i, err)
		}
	}
}

func init() {
	// oversize-result: a job whose every reduce partition is one byte
	// too large for a raw frame.
	RegisterJob(Job{
		Name: "oversize-result",
		Map: func(spec JobSpec, part int) (MapOutput, error) {
			return MapOutput{Buckets: make([]any, spec.ReduceParts)}, nil
		},
		Reduce: func(spec JobSpec, part int, chunks []any) ([]byte, error) {
			return make([]byte, spill.MaxFrame+1), nil
		},
		Merge: func(spec JobSpec, parts [][]byte) ([]byte, error) {
			return bytes.Join(parts, nil), nil
		},
	})
}

// TestOversizeResultFailsJobPromptly: a reduce result that cannot fit
// a frame used to be dropped by the executor with a log line, leaving
// the driver waiting on a TaskDone that never came. It must fail the
// job with the size in the error, and cost no executor.
func TestOversizeResultFailsJobPromptly(t *testing.T) {
	lc, err := StartLocal(LocalConfig{Executors: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := lc.Run(JobSpec{Job: "oversize-result", MapParts: 2, ReduceParts: 1})
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "exceeds frame limit") {
			t.Fatalf("got %v, want a result-exceeds-frame-limit error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job with an oversize reduce result hung")
	}
	if alive := lc.Driver.Runtime().AliveExecutors(); alive != 2 {
		t.Errorf("alive executors after the failed job: got %d, want 2", alive)
	}
	// The cluster is intact: the next job runs.
	spec := testSpec()
	out, err := lc.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkKeyedSum(t, out, spec.Records, spec.Keys)
}

// TestRemoteFetchMissingMatchesLocal pins the contract the recovery path
// depends on: a fetch of unmaterialized map output yields the same
// *engine.MapOutputMissingError whether the store is read locally or
// across the network from a live ShuffleServer.
func TestRemoteFetchMissingMatchesLocal(t *testing.T) {
	s := engine.NewShuffleStore()
	id := s.Register(2, 1)
	if err := s.PutChunksFrom(id, 0, -1, []any{[]KV{{K: 1, V: 1}}}); err != nil {
		t.Fatal(err)
	}

	_, localErr := s.FetchChunks(id, 0)
	var localMiss *engine.MapOutputMissingError
	if !errors.As(localErr, &localMiss) {
		t.Fatalf("local err = %v, want MapOutputMissingError", localErr)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewShuffleServer(s)
	go srv.Serve(ln)
	defer srv.Close()
	_, remoteErr := FetchPeerChunks(ln.Addr().String(), id, 0, []int{0, 1})
	var remoteMiss *engine.MapOutputMissingError
	if !errors.As(remoteErr, &remoteMiss) {
		t.Fatalf("remote err = %v, want MapOutputMissingError", remoteErr)
	}
	if *remoteMiss != *localMiss {
		t.Fatalf("remote miss %+v != local miss %+v", *remoteMiss, *localMiss)
	}
	if remoteMiss.Shuffle != id || remoteMiss.MapPart != 1 {
		t.Fatalf("remote miss fields %+v, want shuffle %d map part 1", *remoteMiss, id)
	}
}

// TestChunkVolume pins what each chunk type measures as — records, and
// bytes as records × element size — the numbers every shuffle volume
// counter and locality weight is built from.
func TestChunkVolume(t *testing.T) {
	for _, c := range []struct {
		name           string
		ch             any
		records, bytes int64
	}{
		{"nil", nil, 0, 0},
		{"[]KV", make([]KV, 3), 3, 48},
		{"[]SKV", []SKV{{K: "a much longer key than sixteen bytes", V: 1}, {}}, 2, 48},
		{"[]PRRec", make([]PRRec, 2), 2, 176},
		{"[]any", []any{1, "x", nil}, 3, 48},
	} {
		r, b := engine.ChunkVolume(c.ch)
		if r != c.records || b != c.bytes {
			t.Errorf("%s: ChunkVolume = (%d, %d), want (%d, %d)", c.name, r, b, c.records, c.bytes)
		}
	}
}

// TestEmptyGatherFetchEvents: a reduce task whose gather moved nothing
// reports one zero-byte local fetch event, on the engine and on dist
// alike, so every gather's time shows in a trace. Keyed-sum over one
// key leaves three of four reduce partitions empty on both backends.
func TestEmptyGatherFetchEvents(t *testing.T) {
	const records, parts = 64, 4
	type gather struct{ part, task, attempt int }
	type volume struct {
		remote         bool
		records, bytes int64
	}
	record := func(rt *engine.Runtime) func() map[gather][]volume {
		var mu sync.Mutex
		events := map[gather][]volume{}
		rt.AddListener(engine.FuncListener{Fetch: func(e engine.FetchEvent) {
			mu.Lock()
			g := gather{e.ReducePart, e.TaskID, e.Attempt}
			events[g] = append(events[g], volume{e.Remote, e.Records, int64(e.Bytes)})
			mu.Unlock()
		}})
		return func() map[gather][]volume { mu.Lock(); defer mu.Unlock(); return events }
	}
	// emptyGathers returns the events of every gather that moved nothing,
	// and checks every reduce partition reported its gather.
	emptyGathers := func(backend string, events map[gather][]volume) [][]volume {
		var empty [][]volume
		seen := map[int]bool{}
		for g, vs := range events {
			seen[g.part] = true
			var moved int64
			for _, v := range vs {
				moved += v.records + v.bytes
			}
			if moved == 0 {
				empty = append(empty, vs)
			}
		}
		if len(seen) != parts {
			t.Errorf("%s: fetch events for %d reduce partitions, want %d", backend, len(seen), parts)
		}
		return empty
	}

	ctx, err := rdd.NewContext(engine.Config{Executors: 2, CoresPerExecutor: 2})
	if err != nil {
		t.Fatal(err)
	}
	engineEvents := record(ctx.Runtime())
	pairs := rdd.KeyBy(rdd.Range(ctx, 0, records, parts), func(int64) int64 { return 0 })
	if _, err := rdd.CollectAsMap(rdd.ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, parts)); err != nil {
		t.Fatal(err)
	}
	ctx.Stop()

	lc, err := StartLocal(LocalConfig{Executors: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	distEvents := record(lc.Driver.Runtime())
	out, err := lc.Run(JobSpec{Job: "keyed-sum", MapParts: parts, ReduceParts: parts, Records: records, Keys: 1})
	lc.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkKeyedSum(t, out, records, 1)

	want := [][]volume{{{}}, {{}}, {{}}} // three gathers, one zero-byte local event each
	for _, b := range []struct {
		name   string
		events map[gather][]volume
	}{{"engine", engineEvents()}, {"dist", distEvents()}} {
		if got := emptyGathers(b.name, b.events); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: empty gathers reported %v, want %v", b.name, got, want)
		}
	}
}
