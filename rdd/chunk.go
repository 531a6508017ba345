package rdd

import "reflect"

// The rdd data path flows *chunks*, not records: a chunk is a typed
// slice ([]T) boxed in a single interface value, produced by a source or
// transformation for one run of records and delivered whole to the next
// sink. Boxing happens once per chunk instead of once per record, which
// is where a memory-resident engine's time goes (M3R, Sparkle).
//
// Contract: a chunk sunk downstream is immutable from that point on —
// consumers may alias it (the cache does), so producers must not reuse
// or mutate a chunk's backing array after sinking it, and
// transformations always build fresh output slices. Empty chunks are
// never sunk. Within an RDD[T], every chunk is a []T; the static type is
// restored with asChunk at each consumption site.

// asChunk unboxes one chunk to its typed slice; a nil chunk (an empty
// shuffle bucket) is an empty slice.
func asChunk[E any](ch any) []E {
	if ch == nil {
		return nil
	}
	return ch.([]E)
}

// chunkRecords totals the record count across chunks.
func chunkRecords[E any](chunks []any) int {
	n := 0
	for _, ch := range chunks {
		n += len(asChunk[E](ch))
	}
	return n
}

// elemBytes is the in-memory size of one E record — the factor shuffle
// writers use to turn record counts into approximate bytes moved.
// Indirect payloads (strings, slices) count only their headers, which
// matches what the shuffle itself materializes: chunks alias payload
// data, they do not copy it.
func elemBytes[E any]() int64 {
	return int64(reflect.TypeOf((*E)(nil)).Elem().Size())
}

// executorPrefs builds the shared preferred-location singletons for
// round-robin sources: prefs[e] is the reusable []int{e}, so a source's
// preferred(part) returns prefs[part%execs] without allocating per call.
func executorPrefs(execs int) [][]int {
	prefs := make([][]int, execs)
	for e := range prefs {
		prefs[e] = []int{e}
	}
	return prefs
}

// boxBuckets boxes per-bucket slices for the shuffle store, nil where a
// bucket is empty.
func boxBuckets[E any](buckets [][]E) []any {
	out := make([]any, len(buckets))
	for i, b := range buckets {
		if len(b) > 0 {
			out[i] = b
		}
	}
	return out
}
