package engine

import (
	"errors"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hpcmr/internal/spill"
)

// TestSpilledBucketReadPath pins the two-level read path at the
// granularity a reduce uses it: with every partition evicted, each
// (map, reduce) fetch returns what was put — empty buckets as nil —
// counts one restore, and is charged the bytes of that bucket, not of
// the partition it came out of. Then the third level: a flipped byte
// inside one bucket's frame is found by the read of that bucket, which
// drops the partition for lineage; a read of another bucket of the same
// file before that does not see it.
func TestSpilledBucketReadPath(t *testing.T) {
	const mapParts, reduceParts = 3, 4
	dir := t.TempDir()
	s, err := NewSpillingShuffleStore(spill.NewAccountant(1), dir)
	if err != nil {
		t.Fatal(err)
	}
	var corrupt []string
	s.SetSpillAudit(func(kind string, _ float64, detail string) {
		if kind == "spill-corrupt" {
			corrupt = append(corrupt, detail)
		}
	})
	// Bucket r of partition m holds m+r+1 records; bucket 1 of every
	// partition is empty. Sizes differ so a bucket's bytes cannot be
	// mistaken for the partition's.
	put := func(m int) []any {
		chunks := make([]any, reduceParts)
		for r := range chunks {
			if r != 1 {
				chunks[r] = slices.Repeat([]int64{int64(10*m + r)}, m+r+1)
			}
		}
		return chunks
	}
	id := s.Register(mapParts, reduceParts)
	for m := 0; m < mapParts; m++ {
		if err := s.PutChunksFrom(id, m, 0, put(m)); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := s.SpillStats(); st.Spills != mapParts || st.Resident != 0 {
		t.Fatalf("a 1-byte budget left something resident: %+v", st)
	}

	reads, bytes := int64(0), int64(0)
	for m := 0; m < mapParts; m++ {
		for r := 0; r < reduceParts; r++ {
			ch, err := s.FetchChunk(id, m, r)
			if err != nil {
				t.Fatalf("fetch (%d,%d): %v", m, r, err)
			}
			if want := put(m)[r]; !reflect.DeepEqual(ch, want) {
				t.Fatalf("fetch (%d,%d): got %#v, want %#v", m, r, ch, want)
			}
			reads++
			if r != 1 {
				bytes += int64(m+r+1) * 8
			}
			if st, _ := s.SpillStats(); st.Restores != reads || st.RestoreBytes != bytes {
				t.Fatalf("after (%d,%d): %d restores of %d bytes, want %d of %d",
					m, r, st.Restores, st.RestoreBytes, reads, bytes)
			}
		}
	}
	for r := 0; r < reduceParts; r++ {
		out, err := s.FetchChunks(id, r)
		if err != nil {
			t.Fatalf("fetch all of %d: %v", r, err)
		}
		for m, ch := range out {
			if want := put(m)[r]; !reflect.DeepEqual(ch, want) {
				t.Fatalf("fetch all (%d,%d): got %#v, want %#v", m, r, ch, want)
			}
		}
	}
	if st, _ := s.SpillStats(); st.Restores != 2*reads || st.RestoreBytes != 2*bytes {
		t.Fatalf("FetchChunks is charged differently: %+v", st)
	}

	// Bucket 2 is partition 1's second frame: int64s of value 12, and
	// the only place that byte pattern occurs in the file.
	path := s.spillPath(id, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := strings.Index(string(raw), "\x0c\x00\x00\x00\x00\x00\x00\x00")
	if at < 0 {
		t.Fatal("bucket 2's records not found in the spill file")
	}
	raw[at] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Frames carry their own checksums: bucket 0 of the damaged file
	// still reads, and reads right.
	if ch, err := s.FetchChunk(id, 1, 0); err != nil || !reflect.DeepEqual(ch, put(1)[0]) {
		t.Fatalf("bucket 0 beside a damaged bucket 2: %#v, %v", ch, err)
	}
	var miss *MapOutputMissingError
	if _, err := s.FetchChunk(id, 1, 2); !errors.As(err, &miss) || miss.MapPart != 1 {
		t.Fatalf("read of the damaged bucket: %v, want MapOutputMissingError for partition 1", err)
	}
	if got := s.MissingParts(id); !slices.Equal(got, []int{1}) {
		t.Fatalf("missing parts %v, want [1]", got)
	}
	if len(corrupt) != 1 || !strings.Contains(corrupt[0], "map=1") {
		t.Fatalf("spill-corrupt audits: %q", corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("the damaged file was kept: %v", err)
	}
	// Once dropped, the whole partition is gone — bucket 0 too — until
	// lineage puts it back.
	if _, err := s.FetchChunk(id, 1, 0); !errors.As(err, &miss) {
		t.Fatalf("bucket 0 of the dropped partition: %v", err)
	}
	if err := s.PutChunksFrom(id, 1, 0, put(1)); err != nil {
		t.Fatal(err)
	}
	if ch, err := s.FetchChunk(id, 1, 2); err != nil || !reflect.DeepEqual(ch, put(1)[2]) {
		t.Fatalf("bucket 2 after the re-put: %#v, %v", ch, err)
	}
}

// TestInvalidatePartIsGuardedByOwner: the driver's answer to a live
// executor's miss drops exactly the row that executor still owns.
func TestInvalidatePartIsGuardedByOwner(t *testing.T) {
	s := NewShuffleStore()
	id := s.Register(2, 2)
	for m := 0; m < 2; m++ {
		if err := s.PutChunkMetaFrom(id, m, m, []int64{8, 8}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		shuffle, part, owner int
	}{{id, 0, 1}, {id, 0, -1}, {id, 2, 0}, {id, -1, 0}, {id + 1, 0, 0}} {
		if s.InvalidatePart(c.shuffle, c.part, c.owner) {
			t.Fatalf("InvalidatePart%v dropped a row", c)
		}
	}
	if !s.Complete(id) {
		t.Fatal("a refused invalidation changed the store")
	}
	if !s.InvalidatePart(id, 0, 0) {
		t.Fatal("the owner's own row was not dropped")
	}
	if got := s.MissingParts(id); !slices.Equal(got, []int{0}) {
		t.Fatalf("missing parts %v, want [0]", got)
	}
	if s.InvalidatePart(id, 0, 0) {
		t.Fatal("a stale second report dropped the row again")
	}
	// A repair by another executor is not undone by the old owner's
	// late report.
	if err := s.PutChunkMetaFrom(id, 0, 1, []int64{8, 8}); err != nil {
		t.Fatal(err)
	}
	if s.InvalidatePart(id, 0, 0) || !s.Complete(id) {
		t.Fatal("a stale report undid a repair")
	}
}
