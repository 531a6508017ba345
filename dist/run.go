package dist

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// A run is a key-sorted sequence of (key, int64) records, the one shape
// of data on the result path: Reduce encodes its partition's sorted
// records as a run, the driver's Merge merges those into the job's
// result, the client reads it with DecodeKVs or DecodeSKVs. Encoded:
// uvarint record count, then per record the key and a zig-zag varint
// value; an int64 key is uvarint(key - previous key), the first against
// MinInt64, a string key uvarint length + bytes.

// source yields an encoded run's records in order; ok is false after
// the last.
type source[K cmp.Ordered] func() (k K, v int64, ok bool, err error)

// keyCodec is how a run stores keys of type K: min is the smallest key
// (the first record's "previous key"), put appends k, get reads the key
// at the head of b and its width — 0 if there is no valid one.
type keyCodec[K cmp.Ordered] struct {
	min K
	put func(b []byte, prev, k K) []byte
	get func(b []byte, prev K) (k K, n int)
}

var errMalformed = errors.New("malformed run")

var intKeys = keyCodec[int64]{
	min: math.MinInt64,
	put: func(b []byte, prev, k int64) []byte { return binary.AppendUvarint(b, uint64(k)-uint64(prev)) },
	get: func(b []byte, prev int64) (int64, int) {
		d, n := binary.Uvarint(b)
		k := prev + int64(d) // wraps below prev exactly when the true sum passes MaxInt64
		if n <= 0 || k < prev {
			return 0, 0
		}
		return k, n
	},
}

var strKeys = keyCodec[string]{
	put: func(b []byte, _, k string) []byte { return append(binary.AppendUvarint(b, uint64(len(k))), k...) },
	get: func(b []byte, _ string) (string, int) {
		l, n := binary.Uvarint(b)
		if n <= 0 || l > uint64(len(b)-n) {
			return "", 0
		}
		return string(b[n : n+int(l)]), n + int(l)
	},
}

// readRun opens an encoded run: a source over its records, and their
// count. The source fails on a record cut short and on bytes left over.
func readRun[K cmp.Ordered](kc *keyCodec[K], data []byte) (source[K], uint64) {
	left, n := binary.Uvarint(data)
	if n <= 0 {
		left, n, data = 1, 0, nil // no count: the first record fails
	}
	data = data[n:]
	prev := kc.min
	return func() (K, int64, bool, error) {
		if left == 0 && len(data) == 0 {
			return prev, 0, false, nil
		}
		k, n := kc.get(data, prev)
		v, m := binary.Varint(data[n:])
		if left == 0 || n <= 0 || m <= 0 {
			return k, 0, false, errMalformed
		}
		data, prev, left = data[n+m:], k, left-1
		return k, v, true, nil
	}, left
}

// decodeRun reads a whole run. Capacity is capped by the input length
// (a record is at least two bytes), so a forged count cannot allocate.
func decodeRun[T any, K cmp.Ordered](kc *keyCodec[K], data []byte, mk func(K, int64) T) ([]T, error) {
	next, n := readRun(kc, data)
	out := make([]T, 0, min(n, uint64(len(data)/2)))
	for {
		k, v, ok, err := next()
		if err != nil {
			return nil, fmt.Errorf("dist: decode result: %w", err)
		}
		if !ok {
			return out, nil
		}
		out = append(out, mk(k, v))
	}
}

// DecodeKVs decodes the result of the integer-keyed jobs.
func DecodeKVs(data []byte) ([]KV, error) { return decodeRun(&intKeys, data, mkKV) }

// DecodeSKVs decodes the result of the string-keyed jobs.
func DecodeSKVs(data []byte) ([]SKV, error) { return decodeRun(&strKeys, data, mkSKV) }

// encodeRun encodes records already sorted by key, as every Reduce has
// them, as a run.
func encodeRun[T any, K cmp.Ordered](kc *keyCodec[K], recs []T, rec func(T) (K, int64)) []byte {
	out := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+4*len(recs)), uint64(len(recs)))
	prev := kc.min
	for _, r := range recs {
		k, v := rec(r)
		out, prev = binary.AppendVarint(kc.put(out, prev, k), v), k
	}
	return out
}

// bucketRuns is the tail of the combining built-in Maps, reduceRuns'
// counterpart: a task's combined sums become its MapOutput, key k in
// bucket bucket(k), each strictly ascending by key. A counting pass
// lays the buckets out back to back in one slice of (key, sum) entries
// and a second pass scatters the table into it; each bucket's run of
// entries is then sorted on the key alone — a radix sort for int64 keys
// — and copied into the bucket in order. A bucket is allocated once, at
// its length, each its own allocation, because the store decides how
// long each one lives (DESIGN §7). size is what one record of key k adds
// to MapOutput.Bytes.
func bucketRuns[T any, K cmp.Ordered](sums map[K]int64, parts int, bucket func(K) int, mk func(K, int64) T, size func(K) int64) MapOutput {
	// ends[r] is where bucket r's run starts in ents until the scatter,
	// where it ends after.
	ends := make([]int, parts)
	for k := range sums {
		ends[bucket(k)]++
	}
	longest, at := 0, 0
	for r, n := range ends {
		ends[r], at, longest = at, at+n, max(longest, n)
	}
	ents := make([]entry[K], len(sums))
	for k, v := range sums {
		r := bucket(k)
		ents[ends[r]] = entry[K]{k, v}
		ends[r]++
	}
	out := MapOutput{Buckets: make([]any, parts), Records: int64(len(sums))}
	var scratch []entry[int64] // the radix sort's, made for the longest run on first use
	start := 0
	for r, end := range ends {
		run := ents[start:end]
		start = end
		if len(run) == 0 {
			continue
		}
		if ints, ok := any(run).([]entry[int64]); ok && len(run) >= radixMin {
			if scratch == nil {
				scratch = make([]entry[int64], longest)
			}
			radixSort(ints, scratch)
		} else {
			slices.SortFunc(run, func(x, y entry[K]) int { return cmp.Compare(x.k, y.k) })
		}
		b := make([]T, len(run))
		for i, e := range run {
			b[i] = mk(e.k, e.v)
			out.Bytes += size(e.k)
		}
		out.Buckets[r] = b
	}
	return out
}

// entry is one combined key and its sum.
type entry[K cmp.Ordered] struct {
	k K
	v int64
}

// radixMin is the run length from which bucketRuns radix-sorts int64
// keys: where the worst case breaks even. A run spread over the whole
// int64 span takes eight passes, each clearing and summing 256 counts,
// and matches slices.SortFunc at about 256 entries; a run of nearby keys
// takes two and wins well below that (64 entries in half the time), but
// no built-in job makes runs between dispatch-fine's 16 entries and
// shuffle-wide's thousands.
const radixMin = 256

// radixSort sorts run by key with an LSD radix sort, one byte a pass,
// on each key's offset from the smallest: uint64(k - lo) orders as k
// does over the whole int64 span, and a run's keys, however large, take
// only as many passes as their span has bytes. A pass whose byte is the
// same in every key is skipped. scratch is at least as long as run.
func radixSort(run, scratch []entry[int64]) {
	lo, hi := run[0].k, run[0].k
	for _, e := range run {
		lo, hi = min(lo, e.k), max(hi, e.k)
	}
	passes := (bits.Len64(uint64(hi)-uint64(lo)) + 7) / 8
	src, dst := run, scratch[:len(run)]
	for p := range passes {
		shift := 8 * p
		var at [256]int
		for _, e := range src {
			at[byte((uint64(e.k)-uint64(lo))>>shift)]++
		}
		if at[byte((uint64(src[0].k)-uint64(lo))>>shift)] == len(src) {
			continue
		}
		sum := 0
		for d, n := range at {
			at[d], sum = sum, sum+n
		}
		for _, e := range src {
			d := byte((uint64(e.k) - uint64(lo)) >> shift)
			dst[at[d]] = e
			at[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &run[0] {
		copy(run, src)
	}
}

// reduceRuns is the Reduce of the combining built-in jobs. A gathered
// chunk is a map partition's combined bucket, strictly ascending by key,
// so the partition's run is a merge, not a hash and a sort: chunk 0 is
// merged with 1, 2 with 3, ..., equal keys summed, and the merged runs
// pairwise again until one is left. A level reads and writes memory in
// order and collapses repeated keys at once; the levels ping-pong between
// two buffers and the chunks are only read (DESIGN §7). A chunk of the
// wrong type or out of order is an error naming its index — the map
// partition that wrote it — never a wrong result.
func reduceRuns[T any, K cmp.Ordered](kc *keyCodec[K], chunks []any, rec func(T) (K, int64), mk func(K, int64) T) ([]byte, error) {
	runs := make([][]T, 0, len(chunks))
	n := 0
	for i, ch := range chunks {
		run, ok := ch.([]T)
		if !ok && ch != nil {
			return nil, fmt.Errorf("dist: reduce: chunk %d is %T, want %T", i, ch, run)
		}
		var prev K
		for j, r := range run {
			k, _ := rec(r)
			if j > 0 && k <= prev {
				return nil, fmt.Errorf("dist: reduce: chunk %d is not strictly ascending by key: %v then %v", i, prev, k)
			}
			prev = k
		}
		if len(run) > 0 {
			runs, n = append(runs, run), n+len(run)
		}
	}
	var dst, src []T // a level's runs lie in src (the first level's are the chunks) and merge into dst
	for ; len(runs) > 1; dst, src = src, dst {
		if cap(dst) < n {
			dst = make([]T, 0, n)
		}
		dst = dst[:0]
		for i := 0; i < len(runs); i += 2 {
			at, a, b, x, y := len(dst), runs[i], []T(nil), 0, 0
			if i+1 < len(runs) {
				b = runs[i+1]
			}
			for x < len(a) && y < len(b) {
				ka, va := rec(a[x])
				kb, vb := rec(b[y])
				switch {
				case ka < kb:
					dst, x = append(dst, a[x]), x+1
				case kb < ka:
					dst, y = append(dst, b[y]), y+1
				default:
					dst, x, y = append(dst, mk(ka, va+vb)), x+1, y+1
				}
			}
			dst = append(append(dst, a[x:]...), b[y:]...)
			runs[i/2] = dst[at:]
		}
		runs, n = runs[:(len(runs)+1)/2], len(dst)
	}
	var out []T
	if len(runs) == 1 {
		out = runs[0]
	}
	return encodeRun(kc, out, rec), nil
}

// mergeRuns is the Merge of every built-in job: a k-way merge of the
// reduce partitions' encoded runs straight into the result run, nothing
// materialised. A zero-length part is a partition that produced nothing.
// Equal keys are summed — so the order they leave the heap in cannot
// matter, and the bytes depend only on the inputs. A part whose keys
// decrease is an error naming it, never a wrong result.
func mergeRuns[K cmp.Ordered](kc *keyCodec[K], parts [][]byte) ([]byte, error) {
	type head struct {
		k    K
		v    int64
		part int
		live bool // false: the part is not read yet and (k, v) is no record
	}
	srcs := make([]source[K], len(parts))
	h := make([]head, 0, len(parts)) // binary min-heap on k
	total := 0
	for i, p := range parts {
		if len(p) > 0 {
			srcs[i], _ = readRun(kc, p)
			h = append(h, head{k: kc.min, part: i})
			total += len(p)
		}
	}
	// The count goes first but is known last: reserve the widest uvarint.
	out := make([]byte, binary.MaxVarintLen64, binary.MaxVarintLen64+total)
	var count uint64
	var sum int64
	cur, prev := kc.min, kc.min
	flush := func() {
		if count > 0 {
			out, prev = binary.AppendVarint(kc.put(out, prev, cur), sum), cur
		}
	}
	for len(h) > 0 {
		top := h[0]
		if top.live && count > 0 && top.k == cur {
			sum += top.v
		} else if top.live {
			flush()
			cur, sum, count = top.k, top.v, count+1
		}
		k, v, ok, err := srcs[top.part]()
		if err == nil && ok && k < top.k {
			err = fmt.Errorf("not key-sorted: %v after %v", k, top.k)
		}
		if err != nil {
			return nil, fmt.Errorf("dist: merge part %d: %w", top.part, err)
		}
		h[0] = head{k, v, top.part, true}
		if !ok {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		for i, c := 0, 1; c < len(h); i, c = c, 2*c+1 { // sift the new root down
			if c+1 < len(h) && h[c+1].k < h[c].k {
				c++
			}
			if h[i].k <= h[c].k {
				break
			}
			h[i], h[c] = h[c], h[i]
		}
	}
	flush()
	start := binary.MaxVarintLen64 - len(binary.AppendUvarint(nil, count))
	binary.PutUvarint(out[start:], count)
	return out[start:], nil
}

func kvRec(r KV) (int64, int64)    { return r.K, r.V }
func skvRec(r SKV) (string, int64) { return r.K, r.V }
func mkKV(k, v int64) KV           { return KV{K: k, V: v} }
func mkSKV(k string, v int64) SKV  { return SKV{K: k, V: v} }

func mergeKVRuns(_ JobSpec, parts [][]byte) ([]byte, error)  { return mergeRuns(&intKeys, parts) }
func mergeSKVRuns(_ JobSpec, parts [][]byte) ([]byte, error) { return mergeRuns(&strKeys, parts) }
