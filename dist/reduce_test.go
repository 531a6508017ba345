package dist

import (
	"bytes"
	"cmp"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Fuzz inputs are read three bytes to a record: record j goes to chunk
// (j + c) mod the chunk count, with a key and a value drawn from small
// tables that reach the extremes of both fields, so that a few hundred
// bytes give repeated keys within and across chunks, disjoint and
// interleaved ranges, and sums that wrap.

func fuzzIntKey(b byte) int64 {
	switch b {
	case 0:
		return math.MinInt64
	case 1:
		return math.MinInt64 + 1
	case 254:
		return math.MaxInt64 - 1
	case 255:
		return math.MaxInt64
	}
	return int64(b) - 128
}

// fuzzStrKey gives "", one- and two-byte keys, so that one key is
// another's prefix.
func fuzzStrKey(b byte) string {
	return string([]byte{'a' + b>>4, 'a' + b&15})[:b%3]
}

func fuzzValue(b byte) int64 {
	switch b {
	case 0:
		return math.MinInt64
	case 255:
		return math.MaxInt64
	}
	return int64(b) - 128
}

// fuzzRecs is n fuzz records, record j being rec(j).
func fuzzRecs(n int, rec func(j int) [3]byte) []byte {
	var data []byte
	for j := 0; j < n; j++ {
		r := rec(j)
		data = append(data, r[:]...)
	}
	return data
}

// checkReduceSum builds nChunks chunks from data (a chunk no record
// lands in is nil at an even index, empty at an odd one), reduces them
// twice, and holds the result to the reference run of the summed
// records and the chunks to the copy taken before.
func checkReduceSum[T any, K cmp.Ordered](t *testing.T, data []byte, nChunks int,
	key func(byte) K, mk func(K, int64) T, rec func(T) (K, int64),
	reduce func(JobSpec, int, []any) ([]byte, error), ref func(map[K]int64) []byte) {
	perChunk := make([]map[K]int64, nChunks)
	sums := map[K]int64{}
	for j := 0; nChunks > 0 && 3*j+2 < len(data); j++ {
		c, k, v := (j+int(data[3*j]))%nChunks, key(data[3*j+1]), fuzzValue(data[3*j+2])
		if perChunk[c] == nil {
			perChunk[c] = map[K]int64{}
		}
		perChunk[c][k] += v
		sums[k] += v
	}
	chunks, before := make([]any, nChunks), make([]any, nChunks)
	for c, m := range perChunk {
		if m == nil && c%2 == 0 {
			continue
		}
		recs := make([]T, 0, len(m))
		for k, v := range m {
			recs = append(recs, mk(k, v))
		}
		slices.SortFunc(recs, func(a, b T) int {
			ka, _ := rec(a)
			kb, _ := rec(b)
			return cmp.Compare(ka, kb)
		})
		chunks[c], before[c] = recs, slices.Clone(recs)
	}
	want := ref(sums)
	for pass := 0; pass < 2; pass++ {
		got, err := reduce(JobSpec{}, 0, chunks)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: %d chunks: got % x, want % x", pass, nChunks, got, want)
		}
		if !reflect.DeepEqual(chunks, before) {
			t.Fatalf("pass %d: reduce wrote to the chunks it gathered", pass)
		}
	}
}

// FuzzReduceSum: the merge-combine of both built-in reduces against
// hash → sort → hand-encode (run_test.go), and the chunks left as they
// were found.
func FuzzReduceSum(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 7, 9}, uint16(0))                    // records and no chunk to put them in
	f.Add([]byte{0, 7, 9, 0, 7, 9, 0, 3, 1}, uint16(1))  // one chunk
	f.Add([]byte{0, 7, 9, 0, 7, 9, 0, 3, 1}, uint16(64)) // mostly nil and empty chunks
	// 2000 chunks of the same two keys, 7 of the same sixteen.
	f.Add(fuzzRecs(2*2000, func(j int) [3]byte { return [3]byte{0, byte(100 + j/2000), byte(j)} }), uint16(2000))
	f.Add(fuzzRecs(16*7, func(j int) [3]byte { return [3]byte{0, byte(100 + j/7), byte(j)} }), uint16(7))
	// 5 chunks of disjoint key ranges: chunk j%5 gets keys 40(j%5) + j/5.
	f.Add(fuzzRecs(200, func(j int) [3]byte { return [3]byte{0, byte(2 + 40*(j%5) + j/5), byte(j)} }), uint16(5))
	// 3 chunks interleaved key by key, every key in one chunk only.
	f.Add(fuzzRecs(240, func(j int) [3]byte { return [3]byte{0, byte(2 + j), 3} }), uint16(3))
	// Both extremes of the key in every chunk, values that wrap when summed.
	f.Add(fuzzRecs(36, func(j int) [3]byte { return [3]byte{0, []byte{0, 1, 254, 255}[j/9], []byte{0, 255, 255}[j%3]} }), uint16(9))
	f.Fuzz(func(t *testing.T, data []byte, nChunks uint16) {
		checkReduceSum(t, data, int(nChunks), fuzzIntKey, mkKV, kvRec, keyedSumReduce, refKVRun)
		checkReduceSum(t, data, int(nChunks), fuzzStrKey, mkSKV, skvRec, wordcountReduce, refSKVRun)
	})
}

// The two reduce tasks of the end-to-end benchmark that differ most
// (reduce partition 0 of each): shuffle-wide's 8 chunks, of which the
// range partitioner fills two with 31 250 keys no other chunk has and
// leaves six nil, and dispatch-fine's 2000 chunks of the same 16 keys.
var reduceShapes = []struct {
	name string
	spec JobSpec
}{
	{"wide-2x31250-distinct", JobSpec{Job: "keyed-sum", Records: 250_000, Keys: 250_000, MapParts: 8, ReduceParts: 4}},
	{"fine-2000x16-identical", JobSpec{Job: "keyed-sum", Records: 500_000, Keys: 64, MapParts: 2000, ReduceParts: 4}},
}

func BenchmarkReduce(b *testing.B) {
	for _, shape := range reduceShapes {
		chunks := gatherSerially(b, shape.spec)[0]
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := keyedSumReduce(shape.spec, 0, chunks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReduceAllocsIndependentOfChunkCount: a reduce allocates its run
// headers, two merge buffers and the encoded run — nothing per chunk,
// per level or per record.
func TestReduceAllocsIndependentOfChunkCount(t *testing.T) {
	for _, shape := range reduceShapes {
		chunks := gatherSerially(t, shape.spec)[0]
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := keyedSumReduce(shape.spec, 0, chunks); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", shape.name, allocs)
		if allocs > 8 {
			t.Errorf("%s: %.0f allocations per reduce, want <= 8", shape.name, allocs)
		}
	}
}

// BenchmarkMap: map partition 0 of the same two jobs — shuffle-wide's
// 31 250 records of as many keys, all in bucket 0; dispatch-fine's 250
// records over 64 keys, 16 to a bucket — and of spill-tight,
// shuffle-wide's data in 16 maps of 15 625 keys.
func BenchmarkMap(b *testing.B) {
	shapes := append(slices.Clone(reduceShapes), reduceShapes[0])
	shapes[2].name, shapes[2].spec.MapParts = "tight-15625-distinct", 16
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := keyedSumMap(shape.spec, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBucketRuns: bucketRuns alone on 31 250 distinct strings into
// 4 buckets.
func BenchmarkBucketRuns(b *testing.B) {
	const n, parts = 31_250, 4
	rng := rand.New(rand.NewPCG(7, 7))
	strs := make(map[string]int64, n)
	for len(strs) < n {
		strs[strconv.FormatUint(rng.Uint64N(1<<40), 36)] = int64(len(strs))
	}
	b.ReportAllocs()
	bucket := func(k string) int { return int(fnv32a(k) % parts) }
	for i := 0; i < b.N; i++ {
		bucketRuns(strs, parts, bucket, skvByKey, mkSKV, func(k string) int64 { return int64(len(k)) + 8 })
	}
}

// TestMapAllocsBoundedByInput: a map task allocates for the keys its
// partition holds — its dense sums and one slice per bucket — not for
// the key space. The wide task took 11.5 MB when a hash table was sized
// by Keys (eight times what the partition holds) and 2.2 MB for a table
// sized by the partition; the fine task's 64 keys are its key space,
// and it took 4936 bytes through a table. The bounds are what the dense
// sums take, so a table coming back fails.
func TestMapAllocsBoundedByInput(t *testing.T) {
	for i, limit := range []uint64{762_084, 1824} {
		shape := reduceShapes[i]
		got := leastAllocBytes(func() {
			if _, err := keyedSumMap(shape.spec, 0); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d bytes", shape.name, got)
		if got > limit {
			t.Errorf("%s: %d bytes per map task, want <= %d", shape.name, got, limit)
		}
	}
}

// TestWordBucketMatchesHashFNV: the inlined hash assigns every word the
// bucket hash/fnv did, so bucket ownership and the recorded shuffle
// volumes stay where they were.
func TestWordBucketMatchesHashFNV(t *testing.T) {
	words := []string{"", "a", "the", "The", "zebra", "naïve", "日本語", "🙂", "a\x00b", strings.Repeat("long", 100)}
	for _, w := range words {
		h := fnv.New32a()
		h.Write([]byte(w))
		if got, want := fnv32a(w), h.Sum32(); got != want {
			t.Errorf("fnv32a(%q) = %#x, hash/fnv gives %#x", w, got, want)
		}
	}
}
