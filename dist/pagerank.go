package dist

import (
	"encoding/gob"
	"fmt"
	"math"

	"hpcmr/engine"
)

// ---- pagerank: the iterative, locality-sensitive workhorse ----
//
// A synthetic community-structured graph over N = spec.Records nodes:
// node n lives in bucket n % ReduceParts, has seven intra-bucket
// out-edges (n + k*ReduceParts mod N, k = 1..7), and every fifth node
// one cross-bucket edge to n+1. Because almost all edges stay inside
// a node's bucket, each superstep's shuffle sends ~97% of its bytes
// back to the bucket's own partition — the workload where
// partition-stable placement turns the shuffle into executor-local
// zero-copy hand-offs. Supersteps run the standard recurrence
// rank'(n) = 0.15/N + 0.85 * sum over in-edges of rank(m)/deg(m),
// starting uniform; step g emits the updated state to the node's own
// bucket plus one flow record per out-edge, and the final reduce
// applies the recurrence once more to the last flows.
//
// Determinism: every emitted bucket is built in ascending node order,
// and contributions accumulate in gathered chunk order (map partition
// 0..R-1), so float summation order — and therefore the encoded result
// — is identical run to run, including after lineage recovery.

// PRRec is pagerank's fixed-size shuffle record: Kind 0 carries a
// node's rank (state), Kind 1 one edge's rank contribution (flow).
// Load pads the record to a realistic width so measured shuffle
// volumes dominate fixed overheads; being an inline array (not a
// slice) keeps engine.ChunkVolume's size-of-element accounting honest.
type PRRec struct {
	Kind uint8
	Node int64
	Val  float64
	Load [8]float64
}

// PRRec kinds.
const (
	prState uint8 = 0
	prFlow  uint8 = 1
)

// prDamping is the standard pagerank damping factor.
const prDamping = 0.85

// prNeighbors calls visit for each out-neighbor of n. Seven
// intra-bucket edges keep rank flow inside n's bucket; every fifth
// node leaks one edge to the next bucket, so every community sends a
// little rank to its neighbor (5 is coprime to any power-of-two part
// count, so cross edges originate in every bucket) and the locality
// ratio stays below 1, honestly.
func prNeighbors(n, nodes int64, parts int, visit func(m int64)) {
	for k := int64(1); k <= 7; k++ {
		visit((n + k*int64(parts)) % nodes)
	}
	if n%5 == 0 {
		visit((n + 1) % nodes)
	}
}

// prDegree is the out-degree of n.
func prDegree(n int64) float64 {
	if n%5 == 0 {
		return 8
	}
	return 7
}

// prOutput boxes per-bucket record slices into a MapOutput with
// volume accounting.
func prOutput(buckets [][]PRRec) MapOutput {
	out := MapOutput{Buckets: make([]any, len(buckets))}
	for r, b := range buckets {
		if len(b) == 0 {
			continue
		}
		out.Buckets[r] = b
		rec, bytes := engine.ChunkVolume(b)
		out.Records += rec
		out.Bytes += bytes
	}
	return out
}

// pagerankMap seeds generation 0: map partition p emits the uniform
// initial rank of every node in bucket p — to bucket p only, so each
// bucket has a sole owner from the first generation onward.
func pagerankMap(spec JobSpec, part int) (MapOutput, error) {
	nodes := spec.Records
	parts := spec.ReduceParts
	buckets := make([][]PRRec, parts)
	init := 1 / float64(nodes)
	for n := int64(part); n < nodes; n += int64(parts) {
		buckets[part] = append(buckets[part], PRRec{Kind: prState, Node: n, Val: init})
	}
	return prOutput(buckets), nil
}

// prGather splits gathered chunks into per-node rank state and
// accumulated flow contributions, in chunk order.
func prGather(chunks []any) (rank, contrib map[int64]float64, err error) {
	rank = make(map[int64]float64)
	contrib = make(map[int64]float64)
	for _, ch := range chunks {
		if ch == nil {
			continue
		}
		recs, ok := ch.([]PRRec)
		if !ok {
			return nil, nil, fmt.Errorf("dist: pagerank got chunk %T, want []PRRec", ch)
		}
		for _, rec := range recs {
			switch rec.Kind {
			case prState:
				rank[rec.Node] = rec.Val
			case prFlow:
				contrib[rec.Node] += rec.Val
			default:
				return nil, nil, fmt.Errorf("dist: pagerank record kind %d", rec.Kind)
			}
		}
	}
	return rank, contrib, nil
}

// pagerankStep runs one superstep for bucket part: update each owned
// node's rank from the gathered state and flows, emit the new state to
// the own bucket and one flow per out-edge to the neighbors' buckets.
func pagerankStep(spec JobSpec, step, part int, chunks []any) (MapOutput, error) {
	nodes := spec.Records
	parts := spec.ReduceParts
	rank, contrib, err := prGather(chunks)
	if err != nil {
		return MapOutput{}, err
	}
	buckets := make([][]PRRec, parts)
	base := (1 - prDamping) / float64(nodes)
	for n := int64(part); n < nodes; n += int64(parts) {
		newRank := base + prDamping*contrib[n]
		if step == 1 {
			// The first superstep has no inbound flows yet: it fans the
			// initial ranks out.
			newRank = rank[n]
		}
		buckets[part] = append(buckets[part], PRRec{Kind: prState, Node: n, Val: newRank})
		share := newRank / prDegree(n)
		prNeighbors(n, nodes, parts, func(m int64) {
			buckets[m%int64(parts)] = append(buckets[m%int64(parts)],
				PRRec{Kind: prFlow, Node: m, Val: share})
		})
	}
	return prOutput(buckets), nil
}

// pagerankReduce applies the recurrence once more to the last
// generation's flows and encodes bucket part's final ranks, scaled to
// integers (1e12) and sorted by node.
func pagerankReduce(spec JobSpec, part int, chunks []any) ([]byte, error) {
	nodes := spec.Records
	parts := spec.ReduceParts
	_, contrib, err := prGather(chunks)
	if err != nil {
		return nil, err
	}
	base := (1 - prDamping) / float64(nodes)
	out := make([]KV, 0, int(nodes)/parts+1)
	for n := int64(part); n < nodes; n += int64(parts) {
		rank := base + prDamping*contrib[n]
		out = append(out, KV{K: n, V: int64(math.Round(rank * 1e12))})
	}
	return encodeRun(&intKeys, out, kvRec), nil
}

func init() {
	gob.Register([]PRRec(nil))
	RegisterJob(Job{
		Name:   "pagerank",
		Map:    pagerankMap,
		Reduce: pagerankReduce,
		Merge:  mergeKVRuns,
		Step:   pagerankStep,
	})
}
