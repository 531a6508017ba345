package dist

import (
	"fmt"
	"math/bits"
	"os"
	"strings"
)

// JobSpec names a registered job and its parameters. Closures cannot
// cross a process boundary, so distributed jobs are named computations
// both the driver and executor binaries compile in; the spec is the
// only state that travels.
type JobSpec struct {
	// Job names the registered job ("keyed-sum", "wordcount", "pagerank").
	Job string
	// MapParts/ReduceParts shape the shuffle (defaults: 2x executors
	// and executors, resolved by the driver).
	MapParts, ReduceParts int
	// Records/Keys parameterize keyed-sum; Records is the node count of
	// pagerank.
	Records, Keys int64
	// Path is wordcount's input file (shared filesystem — the cluster
	// is N local processes).
	Path string
	// Steps is the superstep count of an iterative job (pagerank); jobs
	// without a Step function ignore it.
	Steps int
}

// MapOutput is one map task's result: exactly ReduceParts bucket
// chunks (nil where empty) plus the shuffle volume they represent.
type MapOutput struct {
	// Buckets[r] is the chunk reduce partition r gathers from this map
	// partition. The runtime hands every chunk back element for element
	// as it was put (store, spill, restore, peer fetch), indexed by map
	// partition, so Reduce can rely on the order Map gave it. Gathered
	// chunks are read-only: a co-located one is the store's own slice.
	// bucketRuns makes the buckets reduceRuns accepts.
	Buckets []any
	Records int64
	Bytes   int64
}

// Job is a named two-stage computation. Map produces one map
// partition's shuffle buckets; Reduce merges one reduce partition's
// fetched chunks into an encoded output; Merge combines the encoded
// reduce outputs into the job's final result bytes (driver side). The
// built-in jobs encode both as runs (run.go), read with DecodeKVs or
// DecodeSKVs. All three must be deterministic: the chaos harness asserts
// byte-identical results across fault-free and recovered runs.
type Job struct {
	Name   string
	Map    func(spec JobSpec, part int) (MapOutput, error)
	Reduce func(spec JobSpec, part int, chunks []any) ([]byte, error)
	Merge  func(spec JobSpec, parts [][]byte) ([]byte, error)
	// Step, when set, makes the job iterative: with spec.Steps > 0 the
	// driver runs Map once (generation 0), then Steps superstep stages
	// — each gathers the previous generation's shuffle and writes the
	// next — and finally Reduce over the last generation. Step must be
	// as deterministic as the other three.
	Step func(spec JobSpec, step, part int, chunks []any) (MapOutput, error)
}

var jobs = map[string]Job{}

// RegisterJob adds a job to the registry; duplicate names panic (the
// registry is assembled at init time).
func RegisterJob(j Job) {
	if j.Name == "" || j.Map == nil || j.Reduce == nil || j.Merge == nil {
		panic("dist: RegisterJob: incomplete job")
	}
	if _, ok := jobs[j.Name]; ok {
		panic("dist: RegisterJob: duplicate job " + j.Name)
	}
	jobs[j.Name] = j
}

// LookupJob resolves a registered job by name.
func LookupJob(name string) (Job, error) {
	j, ok := jobs[name]
	if !ok {
		return Job{}, fmt.Errorf("dist: unknown job %q", name)
	}
	return j, nil
}

// ---- keyed-sum: the chaos and perf workhorse ----
//
// Key k sums every i in [0, Records) with i % Keys == k. The map side
// combines and range-partitions (rangeBucket); every bucket it emits is
// strictly ascending by key (one record per key — what "combined"
// means). Reduce merges the buckets it gathers into a sorted run
// (reduceRuns, which fails on a bucket that is not), so reduce part r
// holds exactly bucket r's key range and the driver's merge is a
// concatenation (concatRuns); the result is byte-identical run to run.

func keyedSumMap(spec JobSpec, part int) (MapOutput, error) {
	lo := spec.Records * int64(part) / int64(spec.MapParts)
	hi := spec.Records * int64(part+1) / int64(spec.MapParts)
	// The partition holds hi-lo records, so at most that many keys: the
	// table is sized by what the task sees, never by the key space.
	sums := make(map[int64]int64, min(spec.Keys, hi-lo))
	for i := lo; i < hi; i++ {
		sums[i%spec.Keys] += i
	}
	bucket := rangeBucket(min(spec.Keys, spec.Records), spec.ReduceParts)
	return bucketRuns(sums, spec.ReduceParts, bucket, kvByKey, mkKV, func(int64) int64 { return 16 }), nil
}

// rangeBucket is keyed-sum's partitioner over the n keys [0, n) its
// records occupy: key k goes to bucket ⌊k·parts/n⌋, so bucket r is one
// contiguous range of keys, the ranges ascend with r, and no two
// buckets differ by more than one key. For n > parts the quotient is
// the high word of k·⌈2⁶⁴·parts/n⌉, one multiply a record: exact for
// n < 2³², and monotone, clamped to the last bucket, past that.
func rangeBucket(n int64, parts int) func(int64) int {
	if n <= int64(parts) {
		return func(k int64) int { return int(k * int64(parts) / n) }
	}
	m, _ := bits.Div64(uint64(parts), 0, uint64(n))
	m++
	return func(k int64) int {
		hi, _ := bits.Mul64(uint64(k), m)
		return min(int(hi), parts-1)
	}
}

func keyedSumReduce(_ JobSpec, _ int, chunks []any) ([]byte, error) {
	return reduceRuns(&intKeys, chunks, kvRec, mkKV)
}

// ---- wordcount: the mrrun-facing job ----
//
// Each map partition takes a contiguous range of the file's lines,
// counts words (whitespace-split, lowercased), and buckets by fnv32a(word)
// % ReduceParts; as in keyed-sum, a bucket is strictly ascending by key.
// String keys have no known range to partition, so the reduce parts
// interleave and the driver's merge is the heap's.

func wordcountLines(spec JobSpec, part int) ([]string, error) {
	data, err := os.ReadFile(spec.Path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	n := int64(len(lines))
	lo := n * int64(part) / int64(spec.MapParts)
	hi := n * int64(part+1) / int64(spec.MapParts)
	return lines[lo:hi], nil
}

// fnv32a is hash/fnv's New32a().Sum32() of s without a hasher or a copy.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

func wordcountMap(spec JobSpec, part int) (MapOutput, error) {
	lines, err := wordcountLines(spec, part)
	if err != nil {
		return MapOutput{}, err
	}
	counts := make(map[string]int64)
	for _, line := range lines {
		for _, w := range strings.Fields(line) {
			counts[strings.ToLower(w)]++
		}
	}
	bucket := func(w string) int { return int(fnv32a(w) % uint32(spec.ReduceParts)) }
	return bucketRuns(counts, spec.ReduceParts, bucket, skvByKey, mkSKV, func(w string) int64 { return int64(len(w)) + 8 }), nil
}

func wordcountReduce(_ JobSpec, _ int, chunks []any) ([]byte, error) {
	return reduceRuns(&strKeys, chunks, skvRec, mkSKV)
}

func init() {
	RegisterJob(Job{Name: "keyed-sum", Map: keyedSumMap, Reduce: keyedSumReduce, Merge: mergeKVRuns})
	RegisterJob(Job{Name: "wordcount", Map: wordcountMap, Reduce: wordcountReduce, Merge: mergeSKVRuns})
}

// stageParts is the task count of stage g of the job's chain, and so
// the map-side width of the generation that stage writes: MapParts for
// the map stage, ReduceParts for every superstep and the reduce.
func (s JobSpec) stageParts(g int) int {
	if g == 0 {
		return s.MapParts
	}
	return s.ReduceParts
}

// withDefaults resolves a spec's open parameters against the cluster
// size and validates it.
func (s JobSpec) withDefaults(executors int) (JobSpec, error) {
	if s.MapParts <= 0 {
		s.MapParts = 2 * executors
	}
	if s.ReduceParts <= 0 {
		s.ReduceParts = executors
	}
	switch s.Job {
	case "keyed-sum":
		if s.Records <= 0 {
			s.Records = 100_000
		}
		if s.Keys <= 0 {
			s.Keys = 64
		}
	case "wordcount":
		if s.Path == "" {
			return s, fmt.Errorf("dist: wordcount needs a Path")
		}
	case "pagerank":
		// Square geometry: map partition p seeds exactly reduce bucket
		// p, so every generation is bucket-aligned and the stable
		// partitioner gives each bucket a sole owner from the start.
		s.MapParts = s.ReduceParts
		if s.Steps <= 0 {
			s.Steps = 4
		}
		if s.Records <= 0 {
			s.Records = 4096
		}
		// Node count must divide evenly into buckets so intra-bucket
		// edges (n + k*ReduceParts mod N) stay in bucket n%ReduceParts.
		if rem := s.Records % int64(s.ReduceParts); rem != 0 {
			s.Records += int64(s.ReduceParts) - rem
		}
	}
	if _, err := LookupJob(s.Job); err != nil {
		return s, err
	}
	return s, nil
}
