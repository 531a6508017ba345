package perf

import (
	"fmt"
	"sync"

	"hpcmr/dist"
	"hpcmr/engine"
)

func init() {
	mustRegister(Scenario{
		Name: "engine/iterative-pagerank",
		Desc: "pagerank supersteps on a 4-executor cluster with shuffle-locality placement: co-located zero-copy gathers",
		Run: func(sc Scale) (Extras, error) {
			return runIterativePagerank(sc, false)
		},
	})
	mustRegister(Scenario{
		Name: "engine/iterative-pagerank-nolocality",
		Desc: "A/B twin of engine/iterative-pagerank with locality placement disabled (FIFO dispatch, network gathers)",
		Run: func(sc Scale) (Extras, error) {
			return runIterativePagerank(sc, true)
		},
	})
}

// runIterativePagerank runs the community-graph pagerank job — the
// iterative workload whose superstep gathers are almost entirely
// bucket-local — on a single-node 4-executor cluster, with locality
// placement on or off. With placement on, shuffle_local_fetch_ratio is
// the gated outcome (~0.92; direction-aware, higher is better; ~0.98
// before supersteps combined their flows per node, which shrank the
// local bytes and left the remote ones as they were): a
// placement regression shows up as the ratio collapsing toward 1/4
// long before wall time drifts. The disabled twin exports its split
// ungated — its placement is FIFO happenstance — and exists as the
// wall-clock A/B for TestPagerankLocalityABGate.
func runIterativePagerank(sc Scale, disableLocality bool) (Extras, error) {
	// 16 buckets over 8 slots: more tasks than cores, so placement is
	// decided by the scheduler, not forced by geometry. Under FIFO the
	// assignment drifts with completion order and buckets migrate
	// between supersteps; locality placement pins each bucket to its
	// owner. (With buckets == slots, FIFO placement is accidentally
	// stable and the A/B would measure nothing.)
	spec := dist.JobSpec{Job: "pagerank", ReduceParts: 16, Records: 8192, Steps: 6}
	if sc.Short {
		spec.Records, spec.Steps = 4096, 4
	}

	lc, err := dist.StartLocal(dist.LocalConfig{
		Executors: 4, CoresPerExecutor: 2, DisableLocality: disableLocality,
	})
	if err != nil {
		return nil, err
	}
	defer lc.Close()

	var mu sync.Mutex
	var localBytes, remoteBytes float64
	lc.Driver.Runtime().AddListener(engine.FuncListener{
		Fetch: func(e engine.FetchEvent) {
			mu.Lock()
			if e.Remote {
				remoteBytes += e.Bytes
			} else {
				localBytes += e.Bytes
			}
			mu.Unlock()
		},
	})

	out, err := lc.Run(spec)
	if err != nil {
		return nil, err
	}
	kvs, err := dist.DecodeKVs(out)
	if err != nil {
		return nil, err
	}
	if int64(len(kvs)) != spec.Records {
		return nil, fmt.Errorf("pagerank produced %d nodes, want %d", len(kvs), spec.Records)
	}

	mu.Lock()
	defer mu.Unlock()
	extras := Extras{
		"supersteps":         float64(spec.Steps),
		"graph_nodes":        float64(spec.Records),
		"local_fetch_bytes":  localBytes,
		"remote_fetch_bytes": remoteBytes,
	}
	if total := localBytes + remoteBytes; total > 0 && !disableLocality {
		extras["shuffle_local_fetch_ratio"] = localBytes / total
	}
	return extras, nil
}
