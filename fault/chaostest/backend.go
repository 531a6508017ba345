package chaostest

import (
	"fmt"
	"maps"
	"math"
	"strings"
	"sync/atomic"

	"hpcmr/dist"
	"hpcmr/engine"
	"hpcmr/fault"
	"hpcmr/rdd"
	"hpcmr/sim"
	"hpcmr/trace"
)

// Config describes the simulated cluster and job the simulator backend
// runs.
type Config struct {
	// Nodes is the simulated cluster size (default 8).
	Nodes int
	// CoresPerNode defaults to 4.
	CoresPerNode int
	// Tasks is the number of map tasks (default 32).
	Tasks int
	// Policy is the map-phase policy under test (default ELB — the
	// paper's load balancer, whose starvation freedom is invariant 5).
	Policy sim.Policy
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = 4
	}
	if c.Tasks <= 0 {
		c.Tasks = 32
	}
	if c.Policy == "" {
		c.Policy = sim.ELB
	}
	return c
}

// splitBytes keeps trial jobs small: Tasks splits of 32 MB.
const splitBytes = 32e6

// Sim returns the simulator backend: cfg's GroupBy job on a fresh,
// identically configured sim.Cluster per run, traced on virtual time.
func Sim(cfg Config) Backend { return simBackend(cfg.withDefaults()) }

type simBackend Config

func (b simBackend) Plan(seed int64) fault.Plan {
	return fault.Generate(seed, fault.GenConfig{Nodes: b.Nodes, Tasks: b.Tasks})
}

func (b simBackend) ELBNodes() int {
	if b.Policy != sim.ELB || b.Tasks < 4*b.Nodes {
		return 0
	}
	return b.Nodes
}

func (b simBackend) Run(plan fault.Plan) (Result, *trace.Tracer, error) {
	c, err := sim.New(sim.Config{Nodes: b.Nodes, CoresPerNode: b.CoresPerNode, Device: sim.RAMDisk, Seed: 1})
	if err != nil {
		return nil, nil, err
	}
	if err := c.InjectFaults(plan); err != nil {
		return nil, nil, err
	}
	tr := c.Trace()
	res, err := c.Run(sim.Job{
		Benchmark:  sim.GroupBy,
		InputBytes: float64(b.Tasks) * splitBytes,
		SplitBytes: splitBytes,
		Policy:     b.Policy,
	})
	return simResult{res}, tr, err
}

// simResult judges a simulated job by its map task count and its
// intermediate volume, per node and in total.
type simResult struct{ *sim.Result }

func (r simResult) Diff(golden Result) []string {
	g := golden.(simResult)
	var diffs []string
	if r.MapTasks != g.MapTasks {
		diffs = append(diffs, fmt.Sprintf("map tasks completed = %d, golden = %d", r.MapTasks, g.MapTasks))
	}
	// Volumes agree to one part in a million: the nodes sum in a
	// different order once faults move tasks.
	var got, want float64
	for _, v := range r.PerNodeIntermediate {
		got += v
	}
	for _, v := range g.PerNodeIntermediate {
		want += v
	}
	if math.Abs(got-want) > 1e-6*math.Max(math.Abs(got), math.Abs(want)) {
		diffs = append(diffs, fmt.Sprintf("intermediate bytes = %g, golden = %g", got, want))
	}
	return diffs
}

func (r simResult) Balance() []string {
	var bad []string
	for node, b := range r.PerNodeIntermediate {
		if b < 0 || math.IsNaN(b) {
			bad = append(bad, fmt.Sprintf("node %d intermediate bytes = %g", node, b))
		}
	}
	return bad
}

func (r simResult) Summary(golden Result) string {
	return fmt.Sprintf("job=%.2fs (golden %.2fs)", r.JobTime, golden.(simResult).JobTime)
}

// The keyed-sum job the engine and dist backends run: ksRecords
// integers summed into ksKeys keys over ksParts map and ksReduceParts
// reduce partitions with map-side combining, on ksExecutors executors
// of ksCores cores. Its golden is analytic, so a combined chunk
// delivered twice or lost during recovery shows up as a wrong sum.
const (
	ksExecutors   = 4
	ksCores       = 2
	ksRecords     = 4000
	ksKeys        = 64
	ksParts       = 8
	ksReduceParts = 4
	// ksHorizon is the fault-trigger window in seconds: the job runs in
	// milliseconds, where the generator's 60 s default would push every
	// time-triggered fault past its end.
	ksHorizon = 0.05
)

// Engine returns the engine backend: keyed-sum through rdd's
// ReduceByKey on a fresh engine runtime per run, traced on wall time.
// budget bounds the runtime's resident shuffle and cache bytes, map
// outputs spilling above it (0 = unbounded); tiny budgets make faults
// land on partitions living in spill files.
func Engine(budget int64) Backend { return keyedSum{budget, runEngine} }

// Dist returns the dist backend: keyed-sum on a fresh in-process
// cluster (dist.StartLocal) per run, the driver's runtime traced on
// wall time; budget bounds each executor's resident shuffle bytes.
func Dist(budget int64) Backend { return keyedSum{budget, runDist} }

type keyedSum struct {
	budget int64
	run    func(plan fault.Plan, budget int64, tr *trace.Tracer) (*keyedSums, error)
}

func (keyedSum) Plan(seed int64) fault.Plan {
	return fault.Generate(seed, fault.GenConfig{Nodes: ksExecutors, Tasks: ksParts, Horizon: ksHorizon})
}

func (keyedSum) ELBNodes() int { return 0 }

func (b keyedSum) Run(plan fault.Plan) (Result, *trace.Tracer, error) {
	tr := trace.NewWall()
	s, err := b.run(plan, b.budget, tr)
	return s, tr, err
}

// keyedSums is a keyed-sum run's result and the volume it moved.
type keyedSums struct {
	sums map[int64]int64
	// records and bytes are the cumulative combined volume the run
	// moved, recovery's re-puts included.
	records int64
	bytes   float64
	// alive is the pool size left after the plan's crashes.
	alive int
	// spills and restores count spill-file writes and read-backs under
	// the engine's budget.
	spills, restores int64
	// budget, peak and encodeFailures are the spill tiers' bound, the
	// engine's stabilized resident peak and the encodes that failed.
	budget, peak, encodeFailures int64
}

// Diff compares the sums with the fault-free run's and with the
// analytic golden, exactly.
func (s *keyedSums) Diff(golden Result) []string {
	var diffs []string
	if !maps.Equal(s.sums, golden.(*keyedSums).sums) {
		diffs = append(diffs, "sums differ from the fault-free run's")
	}
	want, wrong := dist.KeyedSumGolden(ksRecords, ksKeys), 0
	for k, v := range want {
		if s.sums[k] != v {
			wrong++
		}
	}
	if wrong > 0 || len(s.sums) != len(want) {
		diffs = append(diffs, fmt.Sprintf("%d keys, %d of golden's %d sums wrong (duplicated or lost combined chunk)",
			len(s.sums), wrong, len(want)))
	}
	return diffs
}

// Balance checks the volume accounting — Pair[int64, int64] is 16
// bytes, and bytes must equal 16 × records exactly, re-puts included —
// and the spill tiers.
func (s *keyedSums) Balance() []string {
	var bad []string
	if s.peak > s.budget {
		bad = append(bad, fmt.Sprintf("stabilized resident peak %d exceeds budget %d", s.peak, s.budget))
	}
	if s.encodeFailures != 0 {
		bad = append(bad, fmt.Sprintf("%d spill encode failures", s.encodeFailures))
	}
	if s.records < ksKeys || s.bytes != float64(s.records)*16 {
		bad = append(bad, fmt.Sprintf("shuffle volume inconsistent: %d records, %.0f bytes", s.records, s.bytes))
	}
	if s.alive < 1 {
		bad = append(bad, "no executors alive after plan")
	}
	return bad
}

func (s *keyedSums) Summary(Result) string {
	out := fmt.Sprintf("%d shuffle records (%.0f B), %d executors alive", s.records, s.bytes, s.alive)
	if s.spills > 0 || s.restores > 0 {
		out += fmt.Sprintf(", %d spills / %d restores", s.spills, s.restores)
	}
	return out
}

// newSums reads a finished run's result and volume off rt.
func newSums(sums map[int64]int64, rt *engine.Runtime, budget int64) *keyedSums {
	m := rt.Metrics()
	return &keyedSums{sums: sums, records: m.ShuffleRecords(), bytes: m.ShuffleBytes(),
		alive: rt.AliveExecutors(), budget: budget}
}

func runEngine(plan fault.Plan, budget int64, tr *trace.Tracer) (*keyedSums, error) {
	ctx, err := rdd.NewContext(engine.Config{
		Executors:        ksExecutors,
		CoresPerExecutor: ksCores,
		MaxTaskFailures:  8,
		MemoryBudget:     budget,
		Faults:           fault.NewInjector(plan),
	})
	if err != nil {
		return nil, err
	}
	defer ctx.Stop()
	rt := ctx.Runtime()
	rt.AddListener(trace.EngineListener(tr))
	pairs := rdd.KeyBy(rdd.Range(ctx, 0, ksRecords, ksParts), func(i int64) int64 { return i % ksKeys })
	sums, err := rdd.CollectAsMap(rdd.ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, ksReduceParts))
	if err != nil {
		return nil, err
	}
	s := newSums(sums, rt, budget)
	if st, ok := rt.SpillStats(); ok {
		s.spills, s.restores, s.peak, s.encodeFailures = st.Spills, st.Restores, st.Peak, st.EncodeFailures
	}
	return s, nil
}

// runDist runs keyed-sum on an in-process cluster. Executors report
// their spill tier only to their log, so the judge sees their failed
// encodes as spill-fail lines and not their resident peak.
func runDist(plan fault.Plan, budget int64, tr *trace.Tracer) (*keyedSums, error) {
	var failedEncodes atomic.Int64
	lc, err := dist.StartLocal(dist.LocalConfig{
		Executors:        ksExecutors,
		CoresPerExecutor: ksCores,
		Plan:             plan,
		MemoryBudget:     budget,
		Logf: func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), " spill-fail ") {
				failedEncodes.Add(1)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	rt := lc.Driver.Runtime()
	rt.AddListener(trace.EngineListener(tr))
	out, err := lc.Run(dist.JobSpec{Job: "keyed-sum", MapParts: ksParts, ReduceParts: ksReduceParts, Records: ksRecords, Keys: ksKeys})
	lc.Close()
	if err != nil {
		return nil, err
	}
	kvs, err := dist.DecodeKVs(out)
	if err != nil {
		return nil, err
	}
	sums := make(map[int64]int64, len(kvs))
	for _, kv := range kvs {
		sums[kv.K] = kv.V
	}
	s := newSums(sums, rt, budget)
	s.encodeFailures = failedEncodes.Load()
	return s, nil
}
