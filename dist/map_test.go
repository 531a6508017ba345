package dist

import (
	"cmp"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
		// Keyed-sum's keys are [0, n); key k's bucket is its position there.
		n := min(spec.Keys, spec.Records)
		intBucket := func(k int64) int { return int(k * int64(spec.ReduceParts) / n) }
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
// go1.24 itself refuses; neither may show. The partitioner ranges over
// the keys the records occupy, not over Keys: bucket r holds exactly
// the keys [⌈r·1000/R⌉, ⌈(r+1)·1000/R⌉), none more than one past an
// even share, where ranging over Keys would put all of them in bucket 0.
func TestKeyedSumMapTableBoundedByInput(t *testing.T) {
	for _, keys := range []int64{1 << 22, 1 << 40} {
		spec := JobSpec{Job: "keyed-sum", Keys: keys, Records: 1000, MapParts: 4, ReduceParts: 3}
		var gathered [][]any
		allocated := allocBytes(func() { gathered = gatherSerially(t, spec) })
		if allocated > 1<<20 {
			t.Errorf("Keys %d: %d map tasks over %d records allocated %d bytes, want < 1 MiB", keys, spec.MapParts, spec.Records, allocated)
		}
		seen, R := int64(0), int64(spec.ReduceParts)
		for r, chunks := range gathered {
			var got []int64
			for _, ch := range chunks {
				kvs, _ := ch.([]KV)
				for _, kv := range kvs {
					if kv.V != kv.K {
						t.Fatalf("Keys %d: bucket %d holds %+v; every key below Records is its own sum", keys, r, kv)
					}
					got = append(got, kv.K)
				}
			}
			slices.Sort(got)
			lo, hi := (int64(r)*spec.Records+R-1)/R, (int64(r+1)*spec.Records+R-1)/R
			if int64(len(got)) != hi-lo || len(got) > 0 && (got[0] != lo || got[len(got)-1] != hi-1) {
				t.Fatalf("Keys %d: bucket %d holds %d keys from %v, want exactly [%d, %d)", keys, r, len(got), got[:min(len(got), 3)], lo, hi)
			}
			if even := (spec.Records + R - 1) / R; int64(len(got)) > even+1 {
				t.Fatalf("Keys %d: bucket %d holds %d keys, more than %d", keys, r, len(got), even+1)
			}
			seen += int64(len(got))
		}
		if seen != spec.Records {
			t.Fatalf("Keys %d: %d records in the buckets, want %d", keys, seen, spec.Records)
		}
	}
}

// FuzzBucketRuns: bucketRuns itself against the oracle, on keys no
// built-in Map makes. Input is read three bytes to a record: a key byte,
// a byte that flips the int64 key's second byte (so a few hundred bytes
// reach past radixMin distinct keys while keeping fuzzIntKey's sign and
// extremes: negative keys, MinInt64 and MaxInt64 in one table, a span of
// 2^64-1 and every radix pass) and a value byte. The string table keys
// the same records by fuzzStrKey. Whether a bucket's run is
// radix-sorted depends on its own length, so the seeds about the
// cut-over put every key in one bucket.
func FuzzBucketRuns(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{0, 0, 9, 255, 0, 9, 128, 0, 1, 127, 0, 255}, uint8(0)) // both extremes, zero, -1; one bucket
	// radixMin-1 and radixMin+1 distinct keys in one bucket, the int64
	// extremes among them: a comparison sort, then eight radix passes.
	f.Add(fuzzRecs(radixMin-1, func(j int) [3]byte { return [3]byte{byte(j), 0, byte(j)} }), uint8(0))
	f.Add(fuzzRecs(radixMin+1, func(j int) [3]byte { return [3]byte{byte(j), byte(j / 256), byte(j)} }), uint8(0))
	// 256 keys 256 apart, each twice: the first pass is skipped, the
	// second leaves the records in the bucket, not in the run.
	f.Add(fuzzRecs(512, func(j int) [3]byte { return [3]byte{5, byte(j), 7} }), uint8(0))
	// 390 keys from -638 to 11, each twice: a span of two bytes whose
	// largest key needs one.
	f.Add(fuzzRecs(780, func(j int) [3]byte {
		if j %= 390; j < 378 {
			return [3]byte{byte(2 + j%126), byte(j / 126), byte(j)}
		}
		return [3]byte{byte(128 + j - 378), 0, byte(j)}
	}), uint8(0))
	// 1 500 keys in 3 buckets: every run radix-sorted into its bucket.
	f.Add(fuzzRecs(1500, func(j int) [3]byte { return [3]byte{byte(j), byte(j / 256), byte(j)} }), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, parts uint8) {
		nParts := 1 + int(parts%32)
		ints, strs := map[int64]int64{}, map[string]int64{}
		for j := 0; 3*j+2 < len(data); j++ {
			v := fuzzValue(data[3*j+2])
			ints[fuzzIntKey(data[3*j])^int64(data[3*j+1])<<8] += v
			strs[fuzzStrKey(data[3*j])] += v
		}
		intBucket := func(k int64) int { return int(uint64(k) % uint64(nParts)) }
		strBucket := func(k string) int { return int(fnv32a(k) % uint32(nParts)) }
		intSize, strSize := func(int64) int64 { return 16 }, func(k string) int64 { return int64(len(k)) + 8 }
		kvKey, skvKey := func(r KV) int64 { return r.K }, func(r SKV) string { return r.K }

		got := bucketRuns(ints, nParts, intBucket, kvByKey, mkKV, intSize)
		want := oracleMapOutput(ints, nParts, intBucket, mkKV, kvKey, func(r KV) int64 { return intSize(r.K) })
		checkMapOutput(t, got, want, nParts, intBucket, kvKey)

		got = bucketRuns(strs, nParts, strBucket, skvByKey, mkSKV, strSize)
		want = oracleMapOutput(strs, nParts, strBucket, mkSKV, skvKey, func(r SKV) int64 { return strSize(r.K) })
		checkMapOutput(t, got, want, nParts, strBucket, skvKey)
	})
}
