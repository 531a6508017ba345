package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"hpcmr/dist"
)

// Every workload runs on the same cluster shape: two executor
// processes of one core each, which with the driver (this process) and
// the single closed-loop client fills a 2-CPU host without
// oversubscribing it by more than the control plane.
const (
	executors        = 2
	coresPerExecutor = 1
)

// seedJitter is how far -seed moves Records (and Keys with it) from
// the base size, so a claim can be re-checked on inputs nobody tuned
// against. It is kept at 1% because the spread it adds across seeds
// counts against the 10% regression bounds.
const seedJitter = 0.01

// workload is one set of inputs the benchmark runs. The program under
// test only ever sees the JobSpec (and, for spill-tight, the executor
// memory budget).
type workload struct {
	name   string
	spec   dist.JobSpec
	budget int64 // per-executor resident shuffle bytes; 0 = unbounded
}

// workloads lists the four layer-separating workloads. Sizes keep one
// job near 0.3 s on a 2-CPU host so that a 20 s run holds 40+ jobs
// (p75 with ten samples beyond it); smoke shrinks them to a few
// milliseconds for the test.
func workloads(smoke bool) []workload {
	div := int64(1)
	if smoke {
		div = 25
	}
	wide := dist.JobSpec{Job: "keyed-sum", Records: 250_000 / div, Keys: 250_000 / div, MapParts: 8, ReduceParts: 4}
	tight := wide
	tight.MapParts = 16
	return []workload{
		// All-distinct keys defeat the map-side combiner: the codec,
		// frames, peer fetch and the result path do the work, dispatch
		// almost none (12 tasks).
		{name: "shuffle-wide", spec: wide},
		// Thousands of ~170 us tasks over 64 keys: the driver's dispatch
		// round trip and the scheduler do the work, the data path is
		// bypassed. A codec change must not move it; a control-plane
		// change must not move shuffle-wide.
		{name: "dispatch-fine", spec: dist.JobSpec{Job: "keyed-sum", Records: 500_000 / div, Keys: 64,
			MapParts: int(2000 / div), ReduceParts: 4}},
		// 12 pagerank supersteps whose gathers are ~97% co-located
		// zero-copy reads under locality placement: a placement or store
		// regression shows at once, a wire optimisation barely. Also the
		// largest resident set.
		{name: "iter-local", spec: dist.JobSpec{Job: "pagerank", Records: 20_000 / div, MapParts: 8, ReduceParts: 8, Steps: 12}},
		// shuffle-wide's data in 16 map outputs under a memory budget:
		// spill encode, write and restore sit on the critical path. An
		// executor's working set is its 8 outputs at 16 B per record; the
		// budget holds two and a half of them (working set = 3.2x
		// budget), because a whole number would let the seed's 1% decide
		// how many outputs fit.
		{name: "spill-tight", spec: tight, budget: wide.Records * 16 / int64(tight.MapParts) * 5 / 2},
	}
}

func findWorkload(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// specFor derives the inputs of one run from the seed: the same seed
// gives the same spec, another seed moves Records by up to seedJitter.
func (w workload) specFor(seed int64) dist.JobSpec {
	s := w.spec
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	s.Records = int64(float64(s.Records) * (1 + (2*rng.Float64()-1)*seedJitter))
	if w.spec.Keys == w.spec.Records {
		s.Keys = s.Records
	}
	if s.Job == "pagerank" {
		// dist's own defaulting pads the node count to a multiple of the
		// bucket count, but only for the job name "pagerank"; the traced
		// twin must arrive already aligned.
		s.Records -= s.Records % int64(s.ReduceParts)
	}
	return s
}

// verifier checks every result before its time counts. Pagerank has
// no closed form here, so its first result of a run becomes the
// reference every later one must match byte for byte.
type verifier struct {
	spec dist.JobSpec
	ref  []byte
}

func (v *verifier) check(out []byte) error {
	kvs, err := dist.DecodeKVs(out)
	if err != nil {
		return err
	}
	if v.spec.Job == "pagerank" {
		return v.checkPagerank(out, kvs)
	}
	return checkKeyedSum(v.spec, kvs)
}

// checkKeyedSum compares against the analytic sums: key k collects
// every i in [0, Records) with i % Keys == k, i.e. the c terms
// k, k+Keys, ... of an arithmetic series.
func checkKeyedSum(spec dist.JobSpec, kvs []dist.KV) error {
	keys := min(spec.Keys, spec.Records)
	if int64(len(kvs)) != keys {
		return fmt.Errorf("keyed-sum: %d keys, want %d", len(kvs), keys)
	}
	for i, kv := range kvs {
		k := int64(i)
		c := (spec.Records - k + spec.Keys - 1) / spec.Keys
		want := k*c + spec.Keys*c*(c-1)/2
		if kv.K != k || kv.V != want {
			return fmt.Errorf("keyed-sum: entry %d is {%d %d}, want {%d %d}", i, kv.K, kv.V, k, want)
		}
	}
	return nil
}

func (v *verifier) checkPagerank(out []byte, kvs []dist.KV) error {
	if int64(len(kvs)) != v.spec.Records {
		return fmt.Errorf("pagerank: %d nodes, want %d", len(kvs), v.spec.Records)
	}
	if v.ref != nil {
		if !bytes.Equal(out, v.ref) {
			return fmt.Errorf("pagerank: result differs from the run's first result")
		}
		return nil
	}
	mass := 0.0
	for i, kv := range kvs {
		if kv.K != int64(i) {
			return fmt.Errorf("pagerank: entry %d has node %d", i, kv.K)
		}
		mass += float64(kv.V) / 1e12
	}
	// The job rounds each rank to 1e-12, and the regular graph leaves
	// only a few distinct ranks, so the rounding errors do not cancel:
	// allow half a unit per node on top of 1e-9.
	if tol := 1e-9 + 0.5e-12*float64(len(kvs)); math.Abs(mass-1) > tol {
		return fmt.Errorf("pagerank: rank mass %.12f, want 1 within %.3g", mass, tol)
	}
	v.ref = out
	return nil
}
