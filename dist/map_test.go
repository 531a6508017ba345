package dist

import (
	"cmp"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// oracleMapOutput is the tail both built-in Maps ended in before
// bucketRuns — append to a growing bucket, sort.Slice, account bucket by
// bucket — kept as the reference the map contract is held to; it shares
// nothing with run.go.
func oracleMapOutput[T any, K cmp.Ordered](sums map[K]int64, parts int, bucket func(K) int, mk func(K, int64) T, key func(T) K, size func(T) int64) MapOutput {
	buckets := make([][]T, parts)
	for k, v := range sums {
		r := bucket(k)
		buckets[r] = append(buckets[r], mk(k, v))
	}
	out := MapOutput{Buckets: make([]any, parts)}
	for r, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Slice(b, func(i, j int) bool { return key(b[i]) < key(b[j]) })
		out.Buckets[r] = b
		out.Records += int64(len(b))
		for _, rec := range b {
			out.Bytes += size(rec)
		}
	}
	return out
}

// checkMapOutput holds one map task's output to the oracle's, bucket for
// bucket (so a partition of no records puts all-nil Buckets), and to the
// contract itself: exactly parts buckets, nil where empty, each strictly
// ascending by key, every key where bucket puts it.
func checkMapOutput[T any, K cmp.Ordered](t *testing.T, got, want MapOutput, parts int, bucket func(K) int, key func(T) K) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("map output differs from the oracle's:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Buckets) != parts {
		t.Fatalf("%d buckets, want %d", len(got.Buckets), parts)
	}
	for r, b := range got.Buckets {
		if b == nil {
			continue
		}
		recs := b.([]T)
		if len(recs) == 0 {
			t.Fatalf("bucket %d is empty, not nil", r)
		}
		for i, rec := range recs {
			if k := key(rec); bucket(k) != r || i > 0 && key(recs[i-1]) >= k {
				t.Fatalf("bucket %d, record %d: key %v belongs in bucket %d, after %v", r, i, k, bucket(k), recs[max(i-1, 0)])
			}
		}
	}
}

// FuzzMapBuckets: both built-in Maps against the oracle over every map
// partition of a geometry, the combined table rebuilt here from the input.
func FuzzMapBuckets(f *testing.F) {
	f.Add(uint16(5000), uint16(36), uint8(5), uint8(3), "a b a\n\n  The the  THE\t\tcat\n\nb  a\n \nzebra a\n")
	f.Add(uint16(100), uint16(4999), uint8(3), uint8(2), "")                        // Keys > Records; an empty file
	f.Add(uint16(5000), uint16(9), uint8(1), uint8(7), "x\nx\nX\nx")                // Keys below the partition size; one word
	f.Add(uint16(3000), uint16(3000), uint8(7), uint8(0), "b a\nA B\n\n\nc\n")      // ReduceParts == 1
	f.Add(uint16(7), uint16(99), uint8(11), uint8(1), "one\ntwo")                   // MapParts > Records, > lines
	f.Add(uint16(0), uint16(0), uint8(3), uint8(3), "\n\n\n")                       // no records; no words
	f.Add(uint16(65535), uint16(65535), uint8(7), uint8(3), "É é\xff \xff\n\u2003") // shuffle-wide's shape; not ASCII, not UTF-8
	f.Fuzz(func(t *testing.T, records, keys uint16, mapParts, reduceParts uint8, text string) {
		spec := JobSpec{Records: int64(records), Keys: 1 + int64(keys), MapParts: 1 + int(mapParts), ReduceParts: 1 + int(reduceParts),
			Path: filepath.Join(t.TempDir(), "in.txt")}
		if err := os.WriteFile(spec.Path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(text, "\n")
		intBucket := func(k int64) int { return int(k % int64(spec.ReduceParts)) }
		wordBucket := func(w string) int {
			h := fnv.New32a()
			h.Write([]byte(w))
			return int(h.Sum32() % uint32(spec.ReduceParts))
		}
		kvKey, skvKey := func(r KV) int64 { return r.K }, func(r SKV) string { return r.K }
		for m := 0; m < spec.MapParts; m++ {
			lo, hi := spec.Records*int64(m)/int64(spec.MapParts), spec.Records*int64(m+1)/int64(spec.MapParts)
			sums := map[int64]int64{}
			for i := lo; i < hi; i++ {
				sums[i%spec.Keys] += i
			}
			got, err := keyedSumMap(spec, m)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleMapOutput(sums, spec.ReduceParts, intBucket, mkKV, kvKey, func(KV) int64 { return 16 })
			checkMapOutput(t, got, want, spec.ReduceParts, intBucket, kvKey)

			counts := map[string]int64{}
			for _, line := range lines[len(lines)*m/spec.MapParts : len(lines)*(m+1)/spec.MapParts] {
				for _, w := range strings.Fields(line) {
					counts[strings.ToLower(w)]++
				}
			}
			if got, err = wordcountMap(spec, m); err != nil {
				t.Fatal(err)
			}
			want = oracleMapOutput(counts, spec.ReduceParts, wordBucket, mkSKV, skvKey, func(r SKV) int64 { return int64(len(r.K)) + 8 })
			checkMapOutput(t, got, want, spec.ReduceParts, wordBucket, skvKey)
		}
	})
}

// TestKeyedSumMapTableBoundedByInput: a key space far larger than the
// input must cost a map task nothing. A table sized by Keys made every
// executor die in turn on `-keys 300000000 -records 1000` — the
// runtime's out-of-memory is not a panic the executor could recover. 1<<22
// is a size the runtime honours as a hint (100 MB a task), 1<<40 one that
// go1.24 itself refuses; neither may show.
func TestKeyedSumMapTableBoundedByInput(t *testing.T) {
	for _, keys := range []int64{1 << 22, 1 << 40} {
		spec := JobSpec{Job: "keyed-sum", Keys: keys, Records: 1000, MapParts: 4, ReduceParts: 3}
		var gathered [][]any
		allocated := allocBytes(func() { gathered = gatherSerially(t, spec) })
		if allocated > 1<<20 {
			t.Errorf("Keys %d: %d map tasks over %d records allocated %d bytes, want < 1 MiB", keys, spec.MapParts, spec.Records, allocated)
		}
		seen := int64(0)
		for r, chunks := range gathered {
			for _, ch := range chunks {
				kvs, _ := ch.([]KV)
				for _, kv := range kvs {
					if kv.V != kv.K || kv.K%int64(spec.ReduceParts) != int64(r) {
						t.Fatalf("Keys %d: bucket %d holds %+v; every key below Records is its own sum", keys, r, kv)
					}
					seen++
				}
			}
		}
		if seen != spec.Records {
			t.Fatalf("Keys %d: %d records in the buckets, want %d", keys, seen, spec.Records)
		}
	}
}
