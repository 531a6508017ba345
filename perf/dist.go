package perf

import (
	"fmt"
	"sync"

	"hpcmr/dist"
	"hpcmr/engine"
	"hpcmr/fault/chaostest"
)

func init() {
	mustRegister(Scenario{
		Name: "dist/remote-shuffle",
		Desc: "keyed-sum on a 3-executor in-process cluster: map output served over the network shuffle service",
		Run:  runDistRemoteShuffle,
	})
	mustRegister(Scenario{
		Name: "dist/dispatch-fine",
		Desc: "keyed-sum in 500 (full: 2000) tiny map tasks on a 2-executor x 1-core in-process cluster: the driver<->executor dispatch round trip is the job",
		Run:  runDistDispatchFine,
	})
}

// runDistRemoteShuffle runs the shuffle-heavy keyed-sum job on a real
// distributed cluster (driver + 3 executors over loopback TCP), so the
// timing covers dispatch, heartbeats, and remote chunk fetches end to
// end. The gated extras are the deterministic map-output volume — the
// map-side combiner collapses each map partition to one record per key,
// so movement is MapParts x Keys regardless of input size or which
// executor each task lands on. The local/remote fetch split depends on
// scheduling and is exported ungated, for the report only.
func runDistRemoteShuffle(sc Scale) (Extras, error) {
	records := int64(400_000)
	if sc.Short {
		records = 100_000
	}
	const executors, keys = 3, int64(64)

	lc, err := dist.StartLocal(dist.LocalConfig{Executors: executors})
	if err != nil {
		return nil, err
	}
	defer lc.Close()

	var mu sync.Mutex
	var localRecs, remoteRecs int64
	var localBytes, remoteBytes float64
	lc.Driver.Runtime().AddListener(engine.FuncListener{
		Fetch: func(e engine.FetchEvent) {
			mu.Lock()
			if e.Remote {
				remoteRecs += e.Records
				remoteBytes += e.Bytes
			} else {
				localRecs += e.Records
				localBytes += e.Bytes
			}
			mu.Unlock()
		},
	})

	spec := dist.JobSpec{
		Job: "keyed-sum", Records: records, Keys: keys,
		MapParts: 2 * executors, ReduceParts: executors,
	}
	out, err := lc.Run(spec)
	if err != nil {
		return nil, err
	}
	kvs, err := dist.DecodeKVs(out)
	if err != nil {
		return nil, err
	}
	if int64(len(kvs)) != keys {
		return nil, fmt.Errorf("remote-shuffle produced %d keys, want %d", len(kvs), keys)
	}

	mu.Lock()
	defer mu.Unlock()
	m := lc.Driver.Runtime().Metrics()
	return Extras{
		"records":               float64(records),
		"shuffle_records_moved": float64(m.ShuffleRecords()),
		"shuffle_bytes_moved":   m.ShuffleBytes(),
		"local_fetch_records":   float64(localRecs),
		"remote_fetch_records":  float64(remoteRecs),
		"local_fetch_bytes":     localBytes,
		"remote_fetch_bytes":    remoteBytes,
	}, nil
}

// runDistDispatchFine is the in-process twin of the end-to-end
// benchmark's dispatch-fine workload: ~250 records per map task over 64
// keys, so each task computes for microseconds and the job's wall is
// the RunTask/TaskDone round trips over the control connections — one
// task in flight per executor. Wall time on a shared CI box is noisy;
// allocations per job are the machine-independent witness of what a
// round trip costs (gob set-up paid per message shows up as hundreds of
// allocations per task). The shuffle volume is MapParts x Keys after
// the map-side combiner, deterministic and gated.
func runDistDispatchFine(sc Scale) (Extras, error) {
	mapParts := 2000
	if sc.Short {
		mapParts = 500
	}
	const keys = int64(64)
	records := int64(250 * mapParts)

	lc, err := dist.StartLocal(dist.LocalConfig{Executors: 2, CoresPerExecutor: 1})
	if err != nil {
		return nil, err
	}
	defer lc.Close()
	out, err := lc.Run(dist.JobSpec{
		Job: "keyed-sum", Records: records, Keys: keys, MapParts: mapParts, ReduceParts: 4,
	})
	if err != nil {
		return nil, err
	}
	kvs, err := dist.DecodeKVs(out)
	if err != nil {
		return nil, err
	}
	want := chaostest.KeyedSumGolden(records, keys)
	if int64(len(kvs)) != keys {
		return nil, fmt.Errorf("dispatch-fine produced %d keys, want %d", len(kvs), keys)
	}
	for _, kv := range kvs {
		if want[kv.K] != kv.V {
			return nil, fmt.Errorf("dispatch-fine key %d: got %d, want %d", kv.K, kv.V, want[kv.K])
		}
	}
	m := lc.Driver.Runtime().Metrics()
	return Extras{
		"records":               float64(records),
		"map_tasks":             float64(mapParts),
		"shuffle_records_moved": float64(m.ShuffleRecords()),
		"shuffle_bytes_moved":   m.ShuffleBytes(),
	}, nil
}
