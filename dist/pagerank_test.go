package dist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"hpcmr/engine"
	"hpcmr/fault"
)

func pagerankSpec() JobSpec {
	return JobSpec{Job: "pagerank", ReduceParts: 8, Records: 4096, Steps: 4}
}

// prReference recomputes the pagerank job serially, replicating the
// distributed accumulation order exactly: per superstep, source
// buckets ascending, nodes ascending within a bucket, neighbors in
// prNeighbors order. Because float addition happens in the same order,
// the reference is bit-identical to the cluster's output, not merely
// close — which is what lets the chaos tests demand byte equality.
func prReference(nodes int64, parts, steps int) []KV {
	rank := make(map[int64]float64, nodes)
	contrib := make(map[int64]float64, nodes)
	init := 1 / float64(nodes)
	for n := int64(0); n < nodes; n++ {
		rank[n] = init
	}
	base := (1 - prDamping) / float64(nodes)
	for step := 1; step <= steps; step++ {
		newRank := make(map[int64]float64, nodes)
		newContrib := make(map[int64]float64, nodes)
		for q := 0; q < parts; q++ {
			for n := int64(q); n < nodes; n += int64(parts) {
				r := base + prDamping*contrib[n]
				if step == 1 {
					r = rank[n]
				}
				newRank[n] = r
				share := r / prDegree(n)
				prNeighbors(n, nodes, parts, func(m int64) {
					newContrib[m] += share
				})
			}
		}
		rank, contrib = newRank, newContrib
	}
	out := make([]KV, 0, nodes)
	for n := int64(0); n < nodes; n++ {
		out = append(out, KV{K: n, V: int64(math.Round((base + prDamping*contrib[n]) * 1e12))})
	}
	return out
}

func checkPagerank(t *testing.T, out []byte, spec JobSpec) {
	t.Helper()
	kvs, err := DecodeKVs(out)
	if err != nil {
		t.Fatalf("decode result: %v", err)
	}
	want := prReference(spec.Records, spec.ReduceParts, spec.Steps)
	if len(kvs) != len(want) {
		t.Fatalf("got %d nodes, want %d", len(kvs), len(want))
	}
	var sum float64
	for i, kv := range kvs {
		if kv != want[i] {
			t.Fatalf("node %d: got rank %d, want %d", kv.K, kv.V, want[i].V)
		}
		sum += float64(kv.V) / 1e12
	}
	// With no dangling nodes the recurrence conserves total rank.
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ranks sum to %v, want 1", sum)
	}
}

// TestLocalClusterPagerank checks the iterative superstep chain end to
// end against the order-exact serial reference.
func TestLocalClusterPagerank(t *testing.T) {
	lc, err := StartLocal(LocalConfig{Executors: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	spec := pagerankSpec()
	out, err := lc.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkPagerank(t, out, spec)
}

// TestPagerankLocalFetchRatio is the issue's headline number: on a
// 4-executor cluster with the locality policy on, the community graph
// must resolve ≥90% of superstep fetch bytes through the co-located
// zero-copy path (the expected ratio for this graph is ~0.99 — almost
// every bucket stays on its sole owner across generations).
func TestPagerankLocalFetchRatio(t *testing.T) {
	lc, err := StartLocal(LocalConfig{Executors: 4, CoresPerExecutor: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
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

	spec := pagerankSpec()
	out, err := lc.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkPagerank(t, out, spec)

	mu.Lock()
	defer mu.Unlock()
	total := localBytes + remoteBytes
	if total == 0 {
		t.Fatal("no fetch events observed")
	}
	ratio := localBytes / total
	t.Logf("local fetch ratio %.4f (%.0f local / %.0f remote bytes)", ratio, localBytes, remoteBytes)
	if ratio < 0.9 {
		t.Errorf("local fetch ratio %.4f < 0.9: locality placement is not keeping buckets on their owners", ratio)
	}
}

// TestPagerankLocalityToggleEquivalence proves placement is a pure
// performance decision: with locality disabled (FIFO placement, every
// fetch potentially remote) the output bytes are identical.
func TestPagerankLocalityToggleEquivalence(t *testing.T) {
	spec := pagerankSpec()
	runWith := func(disable bool) []byte {
		lc, err := StartLocal(LocalConfig{Executors: 4, DisableLocality: disable, Logf: t.Logf})
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
	withLocality := runWith(false)
	withoutLocality := runWith(true)
	if !bytes.Equal(withLocality, withoutLocality) {
		t.Fatal("output depends on the locality toggle; placement must not affect results")
	}
	checkPagerank(t, withLocality, spec)
}

// TestPagerankCrashRecovery kills executor 1 — the preferred sole
// owner of a quarter of the buckets — mid-superstep. Lineage repair
// must rebuild the missing generations on the survivors and still
// produce byte-identical output.
func TestPagerankCrashRecovery(t *testing.T) {
	spec := pagerankSpec()
	plan := fault.Plan{Events: []fault.Event{{Kind: fault.KindCrash, Node: 1, AfterTasks: 10}}}
	lc, err := StartLocal(LocalConfig{Executors: 4, Plan: plan, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	out, err := lc.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkPagerank(t, out, spec)
}

// TestPagerankChaosSweep is the acceptance sweep: 25 seeds crash a
// preferred owner at different points of the superstep chain — during
// the map stage, each superstep, and the final reduce — and every
// recovered output must match the reference exactly.
func TestPagerankChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	spec := JobSpec{Job: "pagerank", ReduceParts: 8, Records: 2048, Steps: 3}
	want := prReference(spec.Records, spec.ReduceParts, spec.Steps)
	for seed := 1; seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			// Total work is 8 map + 3*8 step + 8 reduce = 40 tasks;
			// spread the crash across the whole chain. Alternate the
			// victim so both low and high executor IDs lose ownership.
			after := 1 + (seed*3)%38
			victim := 1 + seed%3
			plan := fault.Plan{Events: []fault.Event{{Kind: fault.KindCrash, Node: victim, AfterTasks: after}}}
			lc, err := StartLocal(LocalConfig{Executors: 4, Plan: plan, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			out, err := lc.Run(spec)
			if err != nil {
				t.Fatalf("seed %d (victim %d after %d tasks): %v", seed, victim, after, err)
			}
			kvs, err := DecodeKVs(out)
			if err != nil {
				t.Fatal(err)
			}
			if len(kvs) != len(want) {
				t.Fatalf("got %d nodes, want %d", len(kvs), len(want))
			}
			for i, kv := range kvs {
				if kv != want[i] {
					t.Fatalf("node %d: got rank %d, want %d (victim %d after %d tasks)",
						kv.K, kv.V, want[i].V, victim, after)
				}
			}
		})
	}
}

// prStepInput is what superstep 2's task for bucket part gathers:
// bucket part of every superstep-1 output, in map partition order.
func prStepInput(tb testing.TB, spec JobSpec, part int) []any {
	tb.Helper()
	chunks := make([]any, spec.ReduceParts)
	for p := range chunks {
		gen0, err := pagerankMap(spec, p)
		if err != nil {
			tb.Fatal(err)
		}
		gen1, err := pagerankStep(spec, 1, p, []any{gen0.Buckets[p]})
		if err != nil {
			tb.Fatal(err)
		}
		chunks[p] = gen1.Buckets[part]
	}
	return chunks
}

// TestPagerankStepBucketsExactlySized: every emitted bucket is
// allocated at its length — no append slack rides into the store —
// including when N % parts != 0 and edges wrap around N into other
// buckets than the intra-bucket rule predicts.
func TestPagerankStepBucketsExactlySized(t *testing.T) {
	for _, nodes := range []int64{2048, 2045} {
		spec := JobSpec{Job: "pagerank", ReduceParts: 8, Records: nodes}
		for part := 0; part < spec.ReduceParts; part++ {
			out, err := pagerankStep(spec, 2, part, prStepInput(t, spec, part))
			if err != nil {
				t.Fatal(err)
			}
			for r, ch := range out.Buckets {
				if b, _ := ch.([]PRRec); len(b) != cap(b) {
					t.Errorf("N=%d part %d bucket %d: len %d cap %d", nodes, part, r, len(b), cap(b))
				}
			}
		}
	}
}

// TestPagerankRejectsForeignNode: a gathered record of a node the
// bucket does not hold is a named error, not an index panic or a rank
// silently credited to the wrong node.
func TestPagerankRejectsForeignNode(t *testing.T) {
	spec := JobSpec{Job: "pagerank", ReduceParts: 4, Records: 64}
	for _, node := range []int64{1, 64, -4} {
		chunks := []any{[]PRRec{{Kind: prFlow, Node: node, Val: 1}}}
		if _, err := pagerankStep(spec, 2, 0, chunks); !errors.Is(err, errForeignNode) {
			t.Errorf("step over node %d in bucket 0: err %v, want errForeignNode", node, err)
		}
		if _, err := pagerankReduce(spec, 0, chunks); !errors.Is(err, errForeignNode) {
			t.Errorf("reduce over node %d in bucket 0: err %v, want errForeignNode", node, err)
		}
	}
}

// BenchmarkPagerankStep is one iter-local superstep task: bucket 0 of a
// 20 000-node graph in 8 buckets, 2 500 nodes gathered from eight
// superstep-1 outputs.
func BenchmarkPagerankStep(b *testing.B) {
	spec := JobSpec{Job: "pagerank", ReduceParts: 8, Records: 20_000}
	chunks := prStepInput(b, spec, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pagerankStep(spec, 2, 0, chunks); err != nil {
			b.Fatal(err)
		}
	}
}
