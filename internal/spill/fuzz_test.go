package spill

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzSpillFileRoundTrip feeds arbitrary bytes to the spill codec as a
// file: truncation, corrupt lengths, index entries that point past the
// file or claim more records than their frame holds, and bit-flipped
// bodies must all come back as errors — never a panic, never an
// allocation sized by a claim (pinned by TestDecodeCorruptPrefix-
// NoOverAllocation and TestIndexClaimsCheckedBeforeAllocation). For
// anything Decode accepts, the whole-entry read is the oracle for the
// bucket read — ReadChunkFile of every bucket equals the decoded chunk,
// nil-ness included — and the entry re-encodes byte-stably.
func FuzzSpillFileRoundTrip(f *testing.F) {
	for _, e := range []*Entry{
		sampleEntry(), // slab, gob-fallback and nil buckets; padding; string keys
		{Space: "cache", ID: 1, Part: 2, Owner: -1},
		{Space: "cache", ID: 1, Part: 2, Owner: -1, Chunks: []any{nil, nil}},
		{Space: "shuffle", ID: 3, Chunks: []any{[]kv{}}},
		{Space: "shuffle", ID: 4, Chunks: append(make([]any, MaxChunks-1), []int64{1})},
	} {
		var seed bytes.Buffer
		if _, err := Encode(&seed, e); err != nil {
			f.Fatal(err)
		}
		f.Add(seed.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 5, 1, 2, 3, 4, 'a', 'b'})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeBytes(data)
		if err != nil {
			return
		}
		if len(e.Chunks) > MaxChunks {
			t.Fatalf("decoded %d chunks past the %d cap", len(e.Chunks), MaxChunks)
		}
		path := filepath.Join(t.TempDir(), "f.spill")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for i, want := range e.Chunks {
			ch, err := ReadChunkFile(path, e.Space, e.ID, e.Part, i)
			if err != nil {
				t.Fatalf("bucket %d of an entry Decode accepts: %v", i, err)
			}
			if !reflect.DeepEqual(ch, want) {
				t.Fatalf("bucket %d: ReadChunkFile %#v, Decode %#v", i, ch, want)
			}
		}
		// The input may be a non-canonical gob of the same values, so
		// stability is judged from the first re-encoding on.
		first := encodeEntry(t, e) // a decoded chunk type is by construction encodable
		again, err := decodeBytes(first)
		if err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if !reflect.DeepEqual(again, e) {
			t.Fatal("round trip changed the entry")
		}
		if !bytes.Equal(encodeEntry(t, again), first) {
			t.Fatal("re-encoding is not byte-stable")
		}
	})
}
