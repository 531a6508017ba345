package dist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"hpcmr/engine"
	"hpcmr/fault"
)

func pagerankSpec() JobSpec {
	return JobSpec{Job: "pagerank", ReduceParts: 8, Records: 4096, Steps: 4}
}

// prReference recomputes the pagerank job serially, replicating the
// distributed summation order exactly: per superstep, each source
// bucket q sums its shares per destination node (its nodes ascending,
// then prNeighbors order), and every node adds the source buckets'
// partial sums in q order, which is the gather's chunk order. Because
// float addition happens in the same order, the reference is
// bit-identical to the cluster's output, not merely close — which is
// what lets the chaos tests demand byte equality. A node no edge of q
// reaches gets q's partial sum 0, which leaves its non-negative sum as
// it is.
func prReference(nodes int64, parts, steps int) []KV {
	rank := make([]float64, nodes)
	for n := range rank {
		rank[n] = 1 / float64(nodes)
	}
	contrib := make([]float64, nodes)
	partial := make([]float64, nodes)
	base := (1 - prDamping) / float64(nodes)
	for step := 1; step <= steps; step++ {
		next := make([]float64, nodes)
		for q := 0; q < parts; q++ {
			clear(partial)
			for n := int64(q); n < nodes; n += int64(parts) {
				if step != 1 {
					rank[n] = base + prDamping*contrib[n]
				}
				share := rank[n] / prDegree(n)
				prNeighbors(n, nodes, parts, func(m int64) { partial[m] += share })
			}
			for m, s := range partial {
				next[m] += s
			}
		}
		contrib = next
	}
	out := make([]KV, 0, nodes)
	for n := int64(0); n < nodes; n++ {
		out = append(out, KV{K: n, V: int64(math.Round((base + prDamping*contrib[n]) * 1e12))})
	}
	return out
}

// prReferencePerEdge is the job as it was before the step's combiner:
// every edge's share is its own flow, added straight into the
// destination in source bucket order, then node order, then
// prNeighbors order. It is kept as an oracle independent of the
// combined order: the combiner changes float summation order, and
// TestPagerankCombinerMatchesPerEdge checks that no rounded rank moves.
func prReferencePerEdge(nodes int64, parts, steps int) []KV {
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

// TestPagerankLocalFetchRatio: on a 4-executor cluster with the
// locality policy on, the community graph must resolve ≥90% of
// superstep fetch bytes through the co-located zero-copy path. Almost
// every bucket stays on its sole owner across generations, so the
// ratio is the graph's own split of step bytes: 0.918 (3 244 032 local
// and 288 640 remote bytes). It read 0.976 while every edge had its own
// flow record; combining flows per node shrank only the local bytes, and
// the remote ones, the cross-bucket edges, stayed at 288 640.
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

// prStepInput is what superstep step's task for bucket part gathers:
// bucket part of every output of the generation before, in map
// partition order, with the chain before it run serially.
func prStepInput(tb testing.TB, spec JobSpec, step, part int) []any {
	tb.Helper()
	gen := make([]MapOutput, spec.ReduceParts)
	for p := range gen {
		out, err := pagerankMap(spec, p)
		if err != nil {
			tb.Fatal(err)
		}
		gen[p] = out
	}
	column := func(r int) []any {
		chunks := make([]any, len(gen))
		for p, out := range gen {
			chunks[p] = out.Buckets[r]
		}
		return chunks
	}
	for g := 1; g < step; g++ {
		next := make([]MapOutput, len(gen))
		for p := range next {
			out, err := pagerankStep(spec, g, p, column(p))
			if err != nil {
				tb.Fatal(err)
			}
			next[p] = out
		}
		gen = next
	}
	return column(part)
}

// TestPagerankStepBucketsExactlySized: every emitted bucket is
// allocated at its length — no append slack rides into the store —
// including when N % parts != 0 and edges wrap around N into other
// buckets than the intra-bucket rule predicts.
func TestPagerankStepBucketsExactlySized(t *testing.T) {
	for _, nodes := range []int64{2048, 2045} {
		spec := JobSpec{Job: "pagerank", ReduceParts: 8, Records: nodes}
		for part := 0; part < spec.ReduceParts; part++ {
			out, err := pagerankStep(spec, 2, part, prStepInput(t, spec, 2, part))
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

// prStepOracle replays superstep step of bucket part the way the job
// did before its combiner: the gathered records in chunk order, then
// every edge's share added straight into its destination, in node
// order and then prNeighbors order. It returns the bucket's new ranks
// in node order and each destination's flow sum.
func prStepOracle(spec JobSpec, step, part int, chunks []any) ([]float64, map[int64]float64) {
	rank := map[int64]float64{}
	contrib := map[int64]float64{}
	for _, ch := range chunks {
		recs, _ := ch.([]PRRec)
		for _, rec := range recs {
			if rec.Kind == prState {
				rank[rec.Node] = rec.Val
			} else {
				contrib[rec.Node] += rec.Val
			}
		}
	}
	base := (1 - prDamping) / float64(spec.Records)
	var ranks []float64
	flows := map[int64]float64{}
	for n := int64(part); n < spec.Records; n += int64(spec.ReduceParts) {
		r := base + prDamping*contrib[n]
		if step == 1 {
			r = rank[n]
		}
		ranks = append(ranks, r)
		share := r / prDegree(n)
		prNeighbors(n, spec.Records, spec.ReduceParts, func(m int64) { flows[m] += share })
	}
	return ranks, flows
}

// checkStepOutput holds one superstep task's output to prStepOracle,
// bit for bit: the own bucket opens with every node's state in node
// order, then each bucket holds at most one flow per node, in
// ascending node order, and every bucket is exactly sized.
func checkStepOutput(t *testing.T, spec JobSpec, step, part int, chunks []any, out MapOutput) {
	t.Helper()
	parts := int64(spec.ReduceParts)
	ranks, flows := prStepOracle(spec, step, part, chunks)
	if len(out.Buckets) != spec.ReduceParts {
		t.Fatalf("%d buckets, want %d", len(out.Buckets), spec.ReduceParts)
	}
	for r, ch := range out.Buckets {
		recs, _ := ch.([]PRRec)
		if len(recs) != cap(recs) {
			t.Errorf("bucket %d: len %d cap %d", r, len(recs), cap(recs))
		}
		if r == part {
			if len(recs) < len(ranks) {
				t.Fatalf("bucket %d: %d records, want %d states first", r, len(recs), len(ranks))
			}
			for i, want := range ranks {
				rec := recs[i]
				if n := int64(part) + int64(i)*parts; rec.Kind != prState || rec.Node != n || math.Float64bits(rec.Val) != math.Float64bits(want) {
					t.Fatalf("bucket %d record %d: %+v, want state of node %d = %v", r, i, rec, n, want)
				}
			}
			recs = recs[len(ranks):]
		}
		prev := int64(-1)
		for _, rec := range recs {
			want, ok := flows[rec.Node]
			switch {
			case rec.Kind != prFlow:
				t.Fatalf("bucket %d: %+v after the states, want a flow", r, rec)
			case rec.Node%parts != int64(r) || rec.Node <= prev:
				t.Fatalf("bucket %d: flow to node %d after node %d, want one per node of the bucket, ascending", r, rec.Node, prev)
			case !ok:
				t.Fatalf("bucket %d: flow to node %d, which no edge reaches", r, rec.Node)
			case math.Float64bits(rec.Val) != math.Float64bits(want):
				t.Fatalf("bucket %d: flow to node %d is %v, per-edge sum %v", r, rec.Node, rec.Val, want)
			}
			delete(flows, rec.Node)
			prev = rec.Node
		}
	}
	for m := range flows {
		t.Fatalf("no flow to node %d, which an edge reaches", m)
	}
}

// TestPagerankStepOneFlowPerNode: a superstep task emits one flow per
// destination node it reaches — the sum of its shares to it, equal bit
// for bit to the per-edge sum in the same order — not one per edge,
// including when N % parts != 0 and wrapped edges leave the bucket.
func TestPagerankStepOneFlowPerNode(t *testing.T) {
	for _, nodes := range []int64{2048, 2045, 4096} {
		spec := JobSpec{Job: "pagerank", ReduceParts: 8, Records: nodes}
		for step := 1; step <= 3; step++ {
			for part := 0; part < spec.ReduceParts; part++ {
				chunks := prStepInput(t, spec, step, part)
				out, err := pagerankStep(spec, step, part, chunks)
				if err != nil {
					t.Fatal(err)
				}
				checkStepOutput(t, spec, step, part, chunks, out)
			}
		}
	}
}

// TestPagerankCombinerMatchesPerEdge: combining flows per destination
// node moves float summation order but no output byte. The
// combined-order reference, and the cluster's output where the driver
// runs the shape unpadded, encode exactly as the per-edge oracle does —
// on small graphs, one whose node count wraps edges across buckets,
// and iter-local's own shape.
func TestPagerankCombinerMatchesPerEdge(t *testing.T) {
	for _, spec := range []JobSpec{
		{Job: "pagerank", ReduceParts: 8, Records: 2045, Steps: 12},
		{Job: "pagerank", ReduceParts: 8, Records: 2048, Steps: 12},
		{Job: "pagerank", ReduceParts: 8, Records: 4096, Steps: 12},
		{Job: "pagerank", ReduceParts: 8, MapParts: 8, Records: 20_080, Steps: 12},
	} {
		want := encodeRun(&intKeys, prReferencePerEdge(spec.Records, spec.ReduceParts, spec.Steps), kvRec)
		got := encodeRun(&intKeys, prReference(spec.Records, spec.ReduceParts, spec.Steps), kvRec)
		if !bytes.Equal(got, want) {
			t.Errorf("N=%d: combined-order reference encodes differently from the per-edge oracle", spec.Records)
		}
		if spec.Records%int64(spec.ReduceParts) != 0 {
			continue
		}
		lc, err := StartLocal(LocalConfig{Executors: 4, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		out, err := lc.Run(spec)
		lc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("N=%d: cluster output differs from the per-edge oracle", spec.Records)
		}
	}
}

// TestPagerankStepAllocsBounded pins what one superstep task
// allocates on BenchmarkPagerankStep's input: its output buckets, the
// gathered state and the combiner's sums. Emitting one flow per edge
// again allocates about 1.85 MB and fails.
func TestPagerankStepAllocsBounded(t *testing.T) {
	spec := JobSpec{Job: "pagerank", ReduceParts: 8, Records: 20_000}
	chunks := prStepInput(t, spec, 2, 0)
	got := leastAllocBytes(func() {
		if _, err := pagerankStep(spec, 2, 0, chunks); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d bytes", got)
	if got > 650_000 {
		t.Errorf("%d bytes per superstep task, want <= 650000", got)
	}
}

// FuzzPagerankStep: one superstep task over a fuzzed geometry — node
// counts a part count does not divide included — against the
// per-edge sum replayed in the same order, bit for bit; and the same
// input with one misrouted record added must fail with errForeignNode.
func FuzzPagerankStep(f *testing.F) {
	f.Add(uint16(2048), uint8(7), uint8(1), uint8(0), uint16(0))
	f.Add(uint16(2045), uint8(7), uint8(2), uint8(5), uint16(99))  // N % parts != 0: wrapped edges leave the bucket
	f.Add(uint16(40), uint8(3), uint8(0), uint8(1), uint16(140))   // a node of another bucket
	f.Add(uint16(4), uint8(7), uint8(2), uint8(6), uint16(1))      // fewer nodes than buckets
	f.Add(uint16(999), uint8(0), uint8(1), uint8(0), uint16(1199)) // one bucket: a node past N
	f.Fuzz(func(t *testing.T, nodes uint16, parts, step, part uint8, misroute uint16) {
		spec := JobSpec{Job: "pagerank", Records: 1 + int64(nodes)%5000, ReduceParts: 1 + int(parts)%16}
		s, p := 1+int(step)%3, int(part)%spec.ReduceParts
		chunks := prStepInput(t, spec, s, p)
		out, err := pagerankStep(spec, s, p, chunks)
		if err != nil {
			t.Fatal(err)
		}
		checkStepOutput(t, spec, s, p, chunks, out)

		foreign := int64(misroute) - 100
		if foreign >= 0 && foreign < spec.Records && foreign%int64(spec.ReduceParts) == int64(p) {
			foreign += spec.Records
		}
		at := int(misroute) % (len(chunks) + 1)
		bad := append(append(slices.Clone(chunks[:at]), []PRRec{{Kind: prFlow, Node: foreign, Val: 1}}), chunks[at:]...)
		if _, err := pagerankStep(spec, s, p, bad); !errors.Is(err, errForeignNode) {
			t.Fatalf("node %d misrouted to bucket %d: err %v, want errForeignNode", foreign, p, err)
		}
	})
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
	chunks := prStepInput(b, spec, 2, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pagerankStep(spec, 2, 0, chunks); err != nil {
			b.Fatal(err)
		}
	}
}
