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

// bucketRuns is the tail of wordcount's Map, reduceRuns' counterpart: a
// task's combined sums become its MapOutput, key k in bucket bucket(k),
// each strictly ascending by key. A counting pass lays the buckets out
// back to back in one slice of records, a second pass scatters the
// table into it, and each bucket's run of records is sorted in place
// and copied into the bucket. A bucket is allocated once, at its
// length, each its own allocation, because the store decides how long
// each one lives (DESIGN §7). size is what one record of key k adds to
// MapOutput.Bytes.
func bucketRuns[T any, K cmp.Ordered](sums map[K]int64, parts int, bucket func(K) int, byKey func(T, T) int, mk func(K, int64) T, size func(K) int64) MapOutput {
	// ends[r] is where bucket r's run starts in recs until the scatter,
	// where it ends after.
	ends := make([]int, parts)
	for k := range sums {
		ends[bucket(k)]++
	}
	at := 0
	for r, n := range ends {
		ends[r], at = at, at+n
	}
	out := MapOutput{Buckets: make([]any, parts), Records: int64(len(sums))}
	recs := make([]T, len(sums))
	for k, v := range sums {
		r := bucket(k)
		recs[ends[r]] = mk(k, v)
		ends[r]++
		out.Bytes += size(k)
	}
	start := 0
	for r, end := range ends {
		run := recs[start:end]
		start = end
		if len(run) == 0 {
			continue
		}
		slices.SortFunc(run, byKey)
		b := make([]T, len(run))
		copy(b, run)
		out.Buckets[r] = b
	}
	return out
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

// mergeKVRuns is the Merge of the int64-keyed jobs. Parts whose key
// ranges are ordered and disjoint — keyed-sum's, which range-partitions
// — are concatenated (concatRuns); any others go through heapMergeRuns.
// Both write the same bytes for the same parts, so which one ran cannot
// show. String keys (mergeSKVRuns) always take the heap: wordcount's
// parts are hash-partitioned, so they interleave.
func mergeKVRuns(_ JobSpec, parts [][]byte) ([]byte, error) {
	if out, ok := concatRuns(parts); ok {
		return out, nil
	}
	return heapMergeRuns(&intKeys, parts)
}

func mergeSKVRuns(_ JobSpec, parts [][]byte) ([]byte, error) { return heapMergeRuns(&strKeys, parts) }

// runSpan is what scanning a part learns of it: its record count, its
// first and last keys, and where its first key's encoding ends.
type runSpan struct {
	count       uint64
	first, last int64
	rest        int
}

// concatRuns is mergeKVRuns on parts that need no merging. It scans
// each non-empty part in order and gives up (ok false) at the first one
// that is not a run of canonical varints with strictly ascending keys,
// or whose first key is not above the previous part's last key; it
// stops at that first key, so interleaved parts cost the scan of one
// part. Those inputs are the heap's work: a shared key must be summed,
// a non-canonical varint re-encoded, damage reported. Otherwise it
// writes the summed count, each part's first key against the previous
// part's last key, and the rest of each part as it came, which is what
// the heap would write, byte for byte.
func concatRuns(parts [][]byte) ([]byte, bool) {
	spans := make([]runSpan, len(parts))
	var count uint64
	total := 0
	floor, bounded := int64(math.MinInt64), false // the last key of the parts before, if they hold one
	for i, p := range parts {
		if len(p) == 0 {
			continue
		}
		s, ok := scanIntRun(p, floor, bounded)
		if !ok {
			return nil, false
		}
		if s.count > 0 {
			spans[i], floor, bounded = s, s.last, true
			count, total = count+s.count, total+len(p)
		}
	}
	out := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+total), count)
	prev := int64(math.MinInt64)
	for i, s := range spans {
		if s.count > 0 {
			out = append(intKeys.put(out, prev, s.first), parts[i][s.rest:]...)
			prev = s.last
		}
	}
	return out, true
}

// canonUvarint reads the uvarint at the head of b: its value and its
// width, 0 unless b holds the shortest encoding of a 64-bit value —
// only a one-byte uvarint may end in 0.
func canonUvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return x, n
}

// scanIntRun scans a part for concatRuns: ok is false unless it is a
// run whose every varint is canonical, whose keys strictly ascend from
// above floor if bounded, and which ends where its last record does.
// The key codec is inlined: the scan reads every record of the job's
// result on the driver, between the last reduce and the client.
func scanIntRun(p []byte, floor int64, bounded bool) (s runSpan, ok bool) {
	n, at := canonUvarint(p)
	if at == 0 {
		return s, false
	}
	s.count, s.last = n, math.MinInt64
	for j := uint64(0); j < n; j++ {
		// A record of a one-byte key delta and a value of at most seven
		// bytes is read from one eight-byte load: a varint ends at the
		// first byte with the high bit clear. Any other record, and the
		// last few bytes of the part, take canonUvarint.
		d, kw, end := uint64(0), 1, 0
		if at+8 <= len(p) {
			x := binary.LittleEndian.Uint64(p[at:])
			ends := ^x & 0x8080808080808080
			vends := ends & (ends - 1)
			w := bits.TrailingZeros64(vends)>>3 + 1
			if ends&0x80 != 0 && vends != 0 && (w == 2 || byte(x>>(8*w-8)) != 0) {
				d, end = x&0x7f, at+w
			}
		}
		if end == 0 {
			var vw int
			if d, kw = canonUvarint(p[at:]); kw > 0 {
				_, vw = canonUvarint(p[at+kw:])
			}
			if kw == 0 || vw == 0 {
				return s, false
			}
			end = at + kw + vw
		}
		k := s.last + int64(d) // wraps to at most s.last exactly when it passes MaxInt64
		if j > 0 && k <= s.last {
			return s, false
		}
		if j == 0 {
			if bounded && k <= floor {
				return s, false
			}
			s.first, s.rest = k, at+kw
		}
		s.last, at = k, end
	}
	return s, at == len(p)
}

// heapMergeRuns is a k-way merge of the reduce partitions' encoded runs
// straight into the result run, nothing materialised. A zero-length
// part is a partition that produced nothing. Equal keys are summed — so
// the order they leave the heap in cannot matter, and the bytes depend
// only on the inputs. A part whose keys decrease is an error naming it,
// never a wrong result.
func heapMergeRuns[K cmp.Ordered](kc *keyCodec[K], parts [][]byte) ([]byte, error) {
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
func kvByKey(a, b KV) int          { return cmp.Compare(a.K, b.K) }
func skvByKey(a, b SKV) int        { return cmp.Compare(a.K, b.K) }
