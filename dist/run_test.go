package dist

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The reference the result path is held to: accumulate in a hash map,
// sort, and write the documented byte layout by hand — none of it
// shared with run.go.

func refKVRun(sums map[int64]int64) []byte {
	keys := make([]int64, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := binary.AppendUvarint(nil, uint64(len(keys)))
	prev := int64(math.MinInt64)
	for _, k := range keys {
		out = binary.AppendUvarint(out, uint64(k)-uint64(prev))
		out = binary.AppendVarint(out, sums[k])
		prev = k
	}
	return out
}

func refSKVRun(counts map[string]int64) []byte {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := binary.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		out = binary.AppendUvarint(out, uint64(len(k)))
		out = append(out, k...)
		out = binary.AppendVarint(out, counts[k])
	}
	return out
}

// gatherSerially runs a job's Map over every map partition and hands
// back what each reduce partition gathers: bucket r of every map
// partition, in map order.
func gatherSerially(tb testing.TB, spec JobSpec) [][]any {
	tb.Helper()
	job, err := LookupJob(spec.Job)
	if err != nil {
		tb.Fatal(err)
	}
	gathered := make([][]any, spec.ReduceParts)
	for m := 0; m < spec.MapParts; m++ {
		mo, err := job.Map(spec, m)
		if err != nil {
			tb.Fatal(err)
		}
		for r, b := range mo.Buckets {
			gathered[r] = append(gathered[r], b)
		}
	}
	return gathered
}

// runJobSerially drives a job's Map, Reduce and Merge the way the
// cluster does, without one.
func runJobSerially(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	job, err := LookupJob(spec.Job)
	if err != nil {
		t.Fatal(err)
	}
	gathered := gatherSerially(t, spec)
	parts := make([][]byte, spec.ReduceParts)
	for r := range parts {
		if parts[r], err = job.Reduce(spec, r, gathered[r]); err != nil {
			t.Fatalf("reduce %d: %v", r, err)
		}
	}
	out, err := job.Merge(spec, parts)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return out
}

// TestKeyedSumMatchesReference: reduce plus k-way merge produce, byte
// for byte, what one hash → sort → hand-encode over the whole input
// produces — with keys repeating across map partitions, one key, reduce
// partitions that get no key at all, and random geometries.
func TestKeyedSumMatchesReference(t *testing.T) {
	specs := []JobSpec{
		{Records: 5000, Keys: 37, MapParts: 6, ReduceParts: 4}, // every key in every map partition
		{Records: 5000, Keys: 5000, MapParts: 8, ReduceParts: 4},
		{Records: 1000, Keys: 1, MapParts: 5, ReduceParts: 3},  // partitions 1 and 2 are empty
		{Records: 1000, Keys: 3, MapParts: 4, ReduceParts: 16}, // ReduceParts > Keys
		{Records: 7, Keys: 100, MapParts: 12, ReduceParts: 2},  // more map partitions than records
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 40; i++ {
		records := 1 + rng.Int63n(20_000)
		specs = append(specs, JobSpec{
			Records: records, Keys: 1 + rng.Int63n(2*records),
			MapParts: 1 + rng.Intn(12), ReduceParts: 1 + rng.Intn(9),
		})
	}
	for _, spec := range specs {
		spec.Job = "keyed-sum"
		sums := make(map[int64]int64)
		for i := int64(0); i < spec.Records; i++ {
			sums[i%spec.Keys] += i
		}
		want := refKVRun(sums)
		got := runJobSerially(t, spec)
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: result differs from the reference: %d vs %d bytes", spec, len(got), len(want))
		}
		kvs, err := DecodeKVs(got)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if len(kvs) != len(sums) {
			t.Fatalf("%+v: decoded %d records, want %d", spec, len(kvs), len(sums))
		}
		for i, kv := range kvs {
			if kv.V != sums[kv.K] || i > 0 && kvs[i-1].K >= kv.K {
				t.Fatalf("%+v: record %d is %+v (want sum %d, keys ascending)", spec, i, kv, sums[kv.K])
			}
		}
	}
}

// TestWordcountMatchesReference: the same for string keys, on a corpus
// with repeated words, mixed case, blank lines and runs of whitespace
// (which must not produce an empty word) — and, below the job, for a
// chunk that does carry the empty key.
func TestWordcountMatchesReference(t *testing.T) {
	text := "a b a\n\n  The the  THE\t\tcat\n\nb  a\n \nzebra a\n"
	path := filepath.Join(t.TempDir(), "in.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, w := range strings.Fields(strings.ToLower(text)) {
		want[w]++
	}
	for _, geom := range [][2]int{{1, 1}, {3, 2}, {7, 5}, {20, 9}} {
		spec := JobSpec{Job: "wordcount", Path: path, MapParts: geom[0], ReduceParts: geom[1]}
		if got := runJobSerially(t, spec); !bytes.Equal(got, refSKVRun(want)) {
			t.Fatalf("%dx%d: result differs from the reference", geom[0], geom[1])
		}
	}

	chunks := []any{[]SKV{{"", 2}, {"a", 1}}, nil, []SKV{{"", 3}, {"b", -4}}, []SKV{}}
	run, err := wordcountReduce(JobSpec{}, 0, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if ref := refSKVRun(map[string]int64{"": 5, "a": 1, "b": -4}); !bytes.Equal(run, ref) {
		t.Fatalf("empty key: got % x, want % x", run, ref)
	}
	got, err := DecodeSKVs(run)
	if err != nil || !reflect.DeepEqual(got, []SKV{{"", 5}, {"a", 1}, {"b", -4}}) {
		t.Fatalf("empty key: decoded %v, %v", got, err)
	}
}

// TestMergeRejectsUnsortedPart: the merge trusts each part to be
// key-sorted, and the reduce each chunk to be strictly ascending by key;
// one that is not must fail the job, naming the part or the chunk,
// rather than yield a result that is silently out of order or short of
// a record. (An int64 run cannot encode disorder at all —
// TestDecodeRunRejectsDamage.) The order of the chunks relative to each
// other is free, and so are nil and empty ones.
func TestMergeRejectsUnsortedPart(t *testing.T) {
	good := refSKVRun(map[string]int64{"a": 1, "c": 2})
	bad := append(binary.AppendUvarint(nil, 2), 1, 'b', 2, 1, 'a', 2) // b, then a
	_, err := mergeSKVRuns(JobSpec{}, [][]byte{good, nil, bad})
	if err == nil || !strings.Contains(err.Error(), "part 2: not key-sorted: a after b") {
		t.Fatalf("unsorted SKV part: got %v", err)
	}
	for _, tc := range []struct {
		reduce func(JobSpec, int, []any) ([]byte, error)
		chunks []any
		want   string
	}{
		{keyedSumReduce, []any{nil, []SKV{{"a", 1}}}, "chunk 1 is []dist.SKV, want []dist.KV"},
		{wordcountReduce, []any{[]KV{{1, 1}}}, "chunk 0 is []dist.KV, want []dist.SKV"},
		{keyedSumReduce, []any{[]KV{{9, 1}, {4, 1}, {4, 2}}, nil, []KV{{4, 4}}}, "chunk 0 is not strictly ascending by key: 9 then 4"},
		{keyedSumReduce, []any{[]KV{{4, 4}}, []KV{}, []KV{{4, 1}, {4, 2}, {9, 1}}}, "chunk 2 is not strictly ascending by key: 4 then 4"},
		{wordcountReduce, []any{nil, []SKV{{"a", 1}, {"b", 1}, {"ab", 1}}}, "chunk 1 is not strictly ascending by key: b then ab"},
	} {
		if run, err := tc.reduce(JobSpec{}, 0, tc.chunks); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got % x, %v; want an error with %q", tc.chunks, run, err, tc.want)
		}
	}
	run, err := keyedSumReduce(JobSpec{}, 0, []any{[]KV{{9, 1}}, nil, []KV{{4, 4}, {9, 2}}, []KV{}, []KV{{-3, 1}, {4, 3}}})
	if err != nil || !bytes.Equal(run, refKVRun(map[int64]int64{-3: 1, 4: 7, 9: 3})) {
		t.Fatalf("chunks in any order, repeated keys: got % x, %v", run, err)
	}
}

// TestRunRoundTrip: the extremes of both fields survive, and a
// shuffle-wide-sized run decodes to what went in.
func TestRunRoundTrip(t *testing.T) {
	edge := []KV{
		{math.MinInt64, math.MaxInt64}, {math.MinInt64 + 1, math.MinInt64}, {-1, -1},
		{0, 0}, {1, 1}, {math.MaxInt64 - 1, math.MinInt64}, {math.MaxInt64, math.MaxInt64},
	}
	big := make([]KV, 250_000)
	rng := rand.New(rand.NewSource(1))
	for i := range big {
		big[i] = KV{K: int64(i) * 3, V: rng.Int63() - rng.Int63()}
	}
	for _, kvs := range [][]KV{nil, edge, big} {
		run := mustRun(t, kvs)
		got, err := DecodeKVs(run)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(kvs) || len(kvs) > 0 && !reflect.DeepEqual(got, kvs) {
			t.Fatalf("%d records came back as %d, or changed", len(kvs), len(got))
		}
		// Splitting the records over parts and merging gives the same bytes.
		var parts [][]byte
		for p := 0; p < 4; p++ {
			var part []KV
			for i := p; i < len(kvs); i += 4 {
				part = append(part, kvs[i])
			}
			parts = append(parts, mustRun(t, part))
		}
		parts = append(parts, nil) // a partition that produced nothing
		merged, err := mergeKVRuns(JobSpec{}, parts)
		if err != nil || !bytes.Equal(merged, run) {
			t.Fatalf("merge of 4 parts of %d records: %v, %d vs %d bytes", len(kvs), err, len(merged), len(run))
		}
	}
	if run, _ := keyedSumReduce(JobSpec{}, 0, nil); !bytes.Equal(run, []byte{0}) {
		t.Fatalf("empty run is % x, want 00", run)
	}
}

func mustRun(t testing.TB, kvs []KV) []byte {
	t.Helper()
	run, err := keyedSumReduce(JobSpec{}, 0, []any{kvs})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestDecodeRunRejectsDamage: every proper prefix and every extension
// of a valid run is an error, and a forged count neither allocates nor
// passes.
func TestDecodeRunRejectsDamage(t *testing.T) {
	kv := mustRun(t, []KV{{-7, 1}, {300, -70000}, {1 << 40, 5}})
	skv, err := wordcountReduce(JobSpec{}, 0, []any{[]SKV{{"", 1}, {"ab", -2}, {"abc", 300}}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(kv); cut++ {
		if _, err := DecodeKVs(kv[:cut]); err == nil {
			t.Errorf("KV run cut to %d of %d bytes decoded", cut, len(kv))
		}
		if _, err := mergeKVRuns(JobSpec{}, [][]byte{kv, kv[:cut]}); err == nil && cut > 0 {
			t.Errorf("merge accepted a KV run cut to %d bytes", cut)
		}
	}
	for cut := 0; cut < len(skv); cut++ {
		if _, err := DecodeSKVs(skv[:cut]); err == nil {
			t.Errorf("SKV run cut to %d of %d bytes decoded", cut, len(skv))
		}
	}
	if _, err := DecodeKVs(append(kv[:len(kv):len(kv)], 0)); err == nil {
		t.Error("KV run with a trailing byte decoded")
	}
	if _, err := DecodeSKVs(append(skv[:len(skv):len(skv)], 0)); err == nil {
		t.Error("SKV run with a trailing byte decoded")
	}
	forged := binary.AppendUvarint(nil, 1<<62)
	if _, err := DecodeKVs(forged); err == nil {
		t.Error("forged count with no records decoded")
	}
	if _, err := DecodeSKVs(append(forged, 1, 'x', 2)); err == nil {
		t.Error("forged count with one record decoded")
	}
	// Two maximal deltas: the second key would pass MaxInt64.
	wrap := binary.AppendUvarint([]byte{2}, math.MaxUint64)
	wrap = binary.AppendUvarint(append(wrap, 0), 1)
	if _, err := DecodeKVs(append(wrap, 0)); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("key past MaxInt64: got %v", err)
	}
}

// FuzzDecodeRun: arbitrary bytes into both decoders and both merges.
// Nothing panics; what decodes is no larger than the input allows (each
// record costs at least two bytes, so a forged count cannot buy
// memory); a valid run stops being one when a byte is cut or added; and
// the merge agrees with the decoder on every run it accepts.
func FuzzDecodeRun(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(refKVRun(map[int64]int64{math.MinInt64: 1, 0: -1, math.MaxInt64: math.MinInt64}))
	f.Add(refSKVRun(map[string]int64{"": 1, "a": 2, "ab": -3}))
	f.Add(binary.AppendUvarint(nil, 1<<62))
	f.Add([]byte{3, 0x80, 0x00, 2, 0, 4, 0, 6}) // over-long varint, repeated key
	f.Fuzz(func(t *testing.T, data []byte) {
		kvs, kerr := DecodeKVs(data)
		skvs, serr := DecodeSKVs(data)
		if 2*len(kvs) > len(data) || cap(kvs) > len(data) || 2*len(skvs) > len(data) || cap(skvs) > len(data) {
			t.Fatalf("%d input bytes decoded to %d (cap %d) KVs, %d (cap %d) SKVs", len(data), len(kvs), cap(kvs), len(skvs), cap(skvs))
		}
		extended := append(data[:len(data):len(data)], 0)
		if kerr == nil {
			if _, err := DecodeKVs(data[:len(data)-1]); err == nil {
				t.Fatal("a valid KV run is still valid one byte shorter")
			}
			if _, err := DecodeKVs(extended); err == nil {
				t.Fatal("a valid KV run is still valid one byte longer")
			}
		}
		if serr == nil {
			if _, err := DecodeSKVs(data[:len(data)-1]); err == nil {
				t.Fatal("a valid SKV run is still valid one byte shorter")
			}
			if _, err := DecodeSKVs(extended); err == nil {
				t.Fatal("a valid SKV run is still valid one byte longer")
			}
		}

		// An int64 run is sorted by construction, so the merge takes
		// every run the decoder takes, and sums what the decoder lists.
		merged, err := mergeKVRuns(JobSpec{}, [][]byte{data, nil, data})
		if (err == nil) != (kerr == nil || len(data) == 0) {
			t.Fatalf("KV merge error %v, decode error %v", err, kerr)
		}
		if err == nil {
			sums := map[int64]int64{}
			for _, kv := range kvs {
				sums[kv.K] += 2 * kv.V
			}
			if want := refKVRun(sums); !bytes.Equal(merged, want) {
				t.Fatalf("KV merge: got % x, want % x", merged, want)
			}
		}
		// A string run can list keys in any order; the merge must
		// accept it exactly when they ascend.
		merged, err = mergeSKVRuns(JobSpec{}, [][]byte{data, data})
		sorted := sort.SliceIsSorted(skvs, func(i, j int) bool { return skvs[i].K < skvs[j].K })
		if (err == nil) != (serr == nil && sorted || len(data) == 0) {
			t.Fatalf("SKV merge error %v, decode error %v, sorted %v", err, serr, sorted)
		}
		if err == nil {
			counts := map[string]int64{}
			for _, kv := range skvs {
				counts[kv.K] += 2 * kv.V
			}
			if want := refSKVRun(counts); !bytes.Equal(merged, want) {
				t.Fatalf("SKV merge: got % x, want % x", merged, want)
			}
		}
	})
}

// FuzzMergeRuns: the driver's merge — a concatenation where the parts
// allow one, the heap otherwise — held to the heap alone on every input
// (the same bytes, the same error) and to the reference encoding on
// every input that is a valid set of runs. Input is read two bytes to a
// record, a key byte and a value byte, summed per key; the distinct
// keys, in order, are dealt into parts by shape%5:
//
//	0: contiguous ranges, ascending — keyed-sum's reduce parts
//	1: interleaved, key i to part i % parts — pagerank's and wordcount's
//	2: as 0, each part also holding its successor's first key, with the
//	   value split between the two — a boundary key that must be summed
//	3: as 0, the parts in descending order
//	4: as 0, each part holding its first key twice, the value split —
//	   a repeated key within a part, which the heap also sums
//
// A part with no key is nil, zero bytes, or a run of no records, by its
// index mod 3. Varint pad/parts of part pad%parts — 0 its count, then
// each record's key and value — is written a byte longer than it needs
// (still a valid run, which the heap re-encodes). A damage word names a
// byte of the last non-empty part and XORs it with its low byte, or cuts
// the part there if that is 0.
func FuzzMergeRuns(f *testing.F) {
	recs := func(n int, rec func(j int) [2]byte) []byte {
		var data []byte
		for j := 0; j < n; j++ {
			r := rec(j)
			data = append(data, r[:]...)
		}
		return data
	}
	wide := recs(200, func(j int) [2]byte { return [2]byte{byte(2 + j), byte(j)} })
	const none = math.MaxUint16
	for shape := uint8(0); shape < 5; shape++ {
		f.Add(wide, uint8(3), shape, uint16(none), uint16(0))
	}
	f.Add([]byte{}, uint8(2), uint8(0), uint16(none), uint16(0))
	f.Add(wide, uint8(0), uint8(0), uint16(none), uint16(0))     // a single part
	f.Add(wide[:6], uint8(7), uint8(0), uint16(none), uint16(0)) // more parts than keys: nil, empty and no-record parts
	// Both extremes of the key, values that wrap, 10-byte varints.
	f.Add([]byte{0, 0, 1, 255, 128, 7, 254, 0, 255, 255}, uint8(1), uint8(0), uint16(none), uint16(0))
	f.Add([]byte{0, 0, 1, 255, 128, 7, 254, 0, 255, 255}, uint8(1), uint8(2), uint16(none), uint16(0))
	// Non-canonical: part 1's count, its second key, its first value
	// and its third.
	for _, v := range []uint16{0*4 + 1, 3*4 + 1, 2*4 + 1, 6*4 + 1} {
		f.Add(wide, uint8(3), uint8(0), v, uint16(0))
	}
	// Damage: a byte flipped, a part cut short.
	f.Add(wide, uint8(3), uint8(0), uint16(none), uint16(7<<8|0x40))
	f.Add(wide, uint8(3), uint8(0), uint16(none), uint16(20<<8))
	f.Fuzz(func(t *testing.T, data []byte, parts, shape uint8, pad, damage uint16) {
		m := mergeCase{parts: 1 + int(parts%8), shape: int(shape % 5), pad: int(pad), damage: int(damage)}
		checkMergeRuns(t, m, data, &intKeys, fuzzIntKey, mergeKVRuns, refKVRun,
			func(prev, k int64) (uint64, string) { return uint64(k) - uint64(prev), "" })
		checkMergeRuns(t, m, data, &strKeys, fuzzStrKey, mergeSKVRuns, refSKVRun,
			func(_, k string) (uint64, string) { return uint64(len(k)), k })
	})
}

// mergeCase is how FuzzMergeRuns lays out and damages one set of parts.
type mergeCase struct{ parts, shape, pad, damage int }

// checkMergeRuns builds one case's parts from data and checks the merge
// on them. head is a key's leading uvarint and the bytes after it, the
// layout run.go documents, written here by hand.
func checkMergeRuns[K cmp.Ordered](t *testing.T, m mergeCase, data []byte, kc *keyCodec[K], key func(byte) K,
	merge func(JobSpec, [][]byte) ([]byte, error), ref func(map[K]int64) []byte, head func(prev, k K) (uint64, string)) {
	t.Helper()
	sums := map[K]int64{}
	for j := 0; 2*j+1 < len(data); j++ {
		sums[key(data[2*j])] += fuzzValue(data[2*j+1])
	}
	keys := slices.Sorted(maps.Keys(sums))
	type rec struct {
		k K
		v int64
	}
	dealt := make([][]rec, m.parts)
	for i, k := range keys {
		p := i * m.parts / len(keys)
		if m.shape == 1 {
			p = i % m.parts
		}
		dealt[p] = append(dealt[p], rec{k, sums[k]})
	}
	shared := false
	if m.shape == 2 {
		for p := 1; p < m.parts; p++ {
			if len(dealt[p]) > 0 && len(dealt[p-1]) > 0 {
				first := &dealt[p][0]
				dealt[p-1] = append(dealt[p-1], rec{first.k, first.v >> 1})
				first.v -= first.v >> 1
				shared = true
			}
		}
	}
	if m.shape == 3 {
		slices.Reverse(dealt)
	}
	if m.shape == 4 {
		for p, rs := range dealt {
			if len(rs) > 0 {
				dealt[p] = append([]rec{{rs[0].k, rs[0].v >> 1}}, rs...)
				dealt[p][1].v -= rs[0].v >> 1
				shared = true
			}
		}
	}
	padded := false
	uv := func(b []byte, x uint64, long bool) []byte {
		b = binary.AppendUvarint(b, x)
		if long && len(binary.AppendUvarint(nil, x)) < binary.MaxVarintLen64 {
			b[len(b)-1] |= 0x80
			b, padded = append(b, 0), true
		}
		return b
	}
	in := make([][]byte, m.parts)
	lastFull := -1
	for p, rs := range dealt {
		if len(rs) == 0 {
			in[p] = [][]byte{nil, {}, {0}}[p%3]
			continue
		}
		long := func(i int) bool { return p == m.pad%m.parts && i == m.pad/m.parts }
		b, prev := uv(nil, uint64(len(rs)), long(0)), kc.min
		for i, r := range rs {
			x, rest := head(prev, r.k)
			b = binary.AppendVarint(append(uv(b, x, long(1+2*i)), rest...), r.v)
			if long(2 + 2*i) {
				b = uv(b[:len(b)-len(binary.AppendVarint(nil, r.v))], uint64(r.v<<1^r.v>>63), true)
			}
			prev = r.k
		}
		in[p], lastFull = b, p
	}
	damaged := m.damage != 0 && lastFull >= 0
	if damaged {
		b := slices.Clone(in[lastFull])
		if at := (m.damage >> 8) % len(b); m.damage&0xff == 0 {
			b = b[:at]
		} else {
			b[at] ^= byte(m.damage)
		}
		in[lastFull] = b
	}

	got, err := merge(JobSpec{}, in)
	want, werr := heapMergeRuns(kc, in)
	if fmt.Sprint(err) != fmt.Sprint(werr) || !bytes.Equal(got, want) {
		t.Fatalf("%+v: merge gave % x, %v; the heap % x, %v", m, got, err, want, werr)
	}
	if damaged {
		return
	}
	if err != nil || !bytes.Equal(got, ref(sums)) {
		t.Fatalf("%+v: merge gave % x, %v; want % x", m, got, err, ref(sums))
	}
	// Ordered, disjoint, canonical parts are concatenated; a key shared
	// across a boundary or repeated within a part never is.
	_, concat := concatRuns(kc, in)
	if m.shape == 0 && !padded && !concat {
		t.Fatalf("%+v: contiguous parts were not concatenated", m)
	}
	if shared && concat {
		t.Fatalf("%+v: parts sharing or repeating a key were concatenated", m)
	}
}

// BenchmarkResultPath times shuffle-wide's result path in isolation:
// four reduce partitions, each merging the two chunks of the eight it
// gathers that its key range fills, then the merge, which concatenates
// the partitions' ordered ranges. merge-interleaved merges the same
// records dealt to the parts by key % 4, as pagerank deals its nodes
// (and wordcount's hash interleaves its words), through the heap.
func BenchmarkResultPath(b *testing.B) {
	spec := JobSpec{Job: "keyed-sum", Records: 250_000, Keys: 250_000, MapParts: 8, ReduceParts: 4}
	gathered := gatherSerially(b, spec)
	parts := make([][]byte, spec.ReduceParts)
	reduce := func() {
		for r := range parts {
			var err error
			if parts[r], err = keyedSumReduce(spec, r, gathered[r]); err != nil {
				b.Fatal(err)
			}
		}
	}
	reduce()
	out, err := mergeKVRuns(spec, parts)
	if err != nil {
		b.Fatal(err)
	}
	kvs, err := DecodeKVs(out)
	if err != nil {
		b.Fatal(err)
	}
	interleaved := make([][]byte, spec.ReduceParts)
	for r := range interleaved {
		var part []KV
		for _, kv := range kvs {
			if kv.K%int64(spec.ReduceParts) == int64(r) {
				part = append(part, kv)
			}
		}
		interleaved[r] = mustRun(b, part)
	}
	b.Run("reduce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reduce()
		}
	})
	for _, m := range []struct {
		name  string
		parts [][]byte
	}{{"merge", parts}, {"merge-interleaved", interleaved}} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got, err := mergeKVRuns(spec, m.parts); err != nil || len(got) != len(out) {
					b.Fatal(len(got), err)
				}
			}
			b.ReportMetric(float64(len(out))/float64(spec.Records), "B/rec")
		})
	}
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if kvs, err := DecodeKVs(out); err != nil || len(kvs) != int(spec.Records) {
				b.Fatal(len(kvs), err)
			}
		}
	})
}
