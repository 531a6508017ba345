package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

type kv struct {
	K int64
	V int64
}

// skv is a string-keyed record: it holds a pointer, so its chunks take
// the gob fallback.
type skv struct {
	K string
	V int64
}

// padded mirrors dist.PRRec: seven bytes of padding after Kind, which a
// slab carries along uninterpreted.
type padded struct {
	Kind uint8
	Node int64
	Val  float64
	Load [2]float64
}

func sampleEntry() *Entry {
	return &Entry{
		Space: "shuffle", ID: 7, Part: 3, Owner: 2,
		Chunks: []any{
			[]kv{{1, 10}, {2, 20}},
			nil, // empty bucket survives as nil
			[]int64{5, 6, 7},
			[]any{int64(9), "mixed"},
			nil,
			[]skv{{"a", 1}, {"bb", 2}},
			[]padded{{Kind: 1, Node: 4, Val: 0.5, Load: [2]float64{1, 2}}},
		},
	}
}

func encodeEntry(t testing.TB, e *Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := Encode(&buf, e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Encode reports %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// decodeBytes reads the entry that is exactly raw. Truncation, corrupt
// lengths, checksum mismatches, malformed gob, out-of-order or
// out-of-range buckets, unknown slab types and trailing bytes all
// return errors; it never panics and never allocates more than the
// bytes actually present.
func decodeBytes(raw []byte) (*Entry, error) {
	r := bytes.NewReader(raw)
	h, off, err := readHeader(r, int64(len(raw)))
	if err != nil {
		return nil, err
	}
	return readEntry(r, h, off)
}

// craft lays a file out from a hand-built header and frames, for index
// claims Encode would never write.
func craft(t testing.TB, h header, frames ...[]byte) []byte {
	t.Helper()
	raw := encodeHeader(&h)
	for _, f := range frames {
		raw = append(raw, f...)
	}
	return raw
}

func TestEntryRoundTrip(t *testing.T) {
	e := sampleEntry()
	raw := encodeEntry(t, e)
	got, err := decodeBytes(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, e)
	}
	if again := encodeEntry(t, got); !bytes.Equal(again, raw) {
		t.Fatal("re-encoding the decoded entry changed its bytes")
	}
}

// TestSlabChosenByType pins which chunk types are written as raw memory
// and which fall back to gob: the choice is the element type's, nothing
// else's.
func TestSlabChosenByType(t *testing.T) {
	for _, c := range []struct {
		chunk any
		slab  bool
	}{
		{[]kv{}, true},
		{[]padded{}, true},
		{[]int64{}, true},
		{[][2]float32{}, true},
		{[]struct{ a, b uint16 }{}, true}, // unexported fields are memory like any other
		{[]skv{}, false},
		{[]any{}, false},
		{[]string{}, false},
		{[]*int64{}, false},
		{[]bool{}, false}, // not every byte is a valid bool
		{[]struct{}{}, false},
		{[][]int64{}, false},
		{map[int64]int64{}, false},
	} {
		if got := slabTypeOf(reflect.TypeOf(c.chunk)) != nil; got != c.slab {
			t.Errorf("%T: slab = %v, want %v", c.chunk, got, c.slab)
		}
	}
}

func TestEntryFileRoundTripAndProvenance(t *testing.T) {
	e := sampleEntry()
	path := filepath.Join(t.TempDir(), "s.spill")
	n, err := WriteEntryFile(path, e)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != n {
		t.Fatalf("wrote %d bytes, file: %v %v", n, st, err)
	}
	got, err := ReadEntryFile(path, "shuffle", 7, 3)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatal("file round trip mismatch")
	}
	for i, want := range e.Chunks {
		ch, err := ReadChunkFile(path, "shuffle", 7, 3, i)
		if err != nil {
			t.Fatalf("bucket %d: %v", i, err)
		}
		if !reflect.DeepEqual(ch, want) {
			t.Fatalf("bucket %d: got %#v, want %#v", i, ch, want)
		}
	}
	for _, bucket := range []int{-1, len(e.Chunks)} {
		if _, err := ReadChunkFile(path, "shuffle", 7, 3, bucket); err == nil {
			t.Fatalf("bucket %d of %d accepted", bucket, len(e.Chunks))
		}
	}
	// Provenance mismatches are errors: the wrong file must never serve
	// a fetch.
	if _, err := ReadEntryFile(path, "shuffle", 7, 4); err == nil {
		t.Fatal("wrong part accepted")
	}
	if _, err := ReadEntryFile(path, "cache", 7, 3); err == nil {
		t.Fatal("wrong space accepted")
	}
	if _, err := ReadChunkFile(path, "shuffle", 8, 3, 0); err == nil {
		t.Fatal("wrong id accepted by a bucket read")
	}
}

// TestCorruptionDetectedByTheBucketThatReadsIt flips one byte inside
// each frame in turn: a read of that bucket and a whole-entry read
// fail with ErrChecksum, reads of the other buckets do not notice.
func TestCorruptionDetectedByTheBucketThatReadsIt(t *testing.T) {
	e := sampleEntry()
	raw := encodeEntry(t, e)
	h, off, err := readHeader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.spill")
	for _, hit := range h.Index {
		mut := bytes.Clone(raw)
		mut[off+hit.Len/2] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadEntryFile(path, "shuffle", 7, 3); !errors.Is(err, ErrChecksum) {
			t.Fatalf("frame %d damaged: whole read got %v, want ErrChecksum", hit.Bucket, err)
		}
		for i, want := range e.Chunks {
			ch, err := ReadChunkFile(path, "shuffle", 7, 3, i)
			if i == hit.Bucket {
				if !errors.Is(err, ErrChecksum) {
					t.Fatalf("frame %d damaged: its read got %v, want ErrChecksum", i, err)
				}
				continue
			}
			if err != nil || !reflect.DeepEqual(ch, want) {
				t.Fatalf("frame %d damaged: read of bucket %d got %#v, %v", hit.Bucket, i, ch, err)
			}
		}
		off += hit.Len
	}
	// Damage to the header is every bucket's damage.
	mut := bytes.Clone(raw)
	mut[prefixLen+3] ^= 0x01
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := range e.Chunks {
		if _, err := ReadChunkFile(path, "shuffle", 7, 3, i); !errors.Is(err, ErrChecksum) {
			t.Fatalf("header damaged: bucket %d got %v, want ErrChecksum", i, err)
		}
	}
}

func TestEntryEmptyChunks(t *testing.T) {
	for _, e := range []*Entry{
		{Space: "cache", ID: 1, Part: 0, Owner: -1, Chunks: nil},
		{Space: "cache", ID: 1, Part: 0, Owner: -1, Chunks: []any{nil, nil, nil}},
	} {
		raw := encodeEntry(t, e)
		got, err := decodeBytes(raw)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got.Chunks) != len(e.Chunks) {
			t.Fatalf("got %d chunks, want %d", len(got.Chunks), len(e.Chunks))
		}
		for i, ch := range got.Chunks {
			if ch != nil {
				t.Fatalf("chunk %d not nil", i)
			}
		}
	}
	// A chunk of no records is not an empty bucket: it comes back as the
	// empty slice of its type.
	raw := encodeEntry(t, &Entry{Space: "cache", Chunks: []any{[]kv{}}})
	got, err := decodeBytes(raw)
	if err != nil || !reflect.DeepEqual(got.Chunks, []any{[]kv{}}) {
		t.Fatalf("0-length slab: got %#v, %v", got, err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	raw := encodeEntry(t, sampleEntry())
	// Every proper prefix must error, never panic; no prefix may decode
	// as a complete entry.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := decodeBytes(raw[:cut]); err == nil {
			t.Fatalf("cut=%d: truncated entry decoded cleanly", cut)
		}
	}
}

func TestDecodeBitFlips(t *testing.T) {
	raw := encodeEntry(t, sampleEntry())
	orig := sampleEntry()
	// Flipping any single bit must yield an error, never silently
	// different data: the header's CRC covers the index (and with it
	// every frame's length and CRC), each frame's CRC its bytes.
	for i := 0; i < len(raw)*8; i++ {
		mut := bytes.Clone(raw)
		mut[i/8] ^= 1 << (i % 8)
		got, err := decodeBytes(mut)
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got, orig) {
			t.Fatalf("bit %d: flip decoded cleanly to different data", i)
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	raw := append(encodeEntry(t, sampleEntry()), "stowaway"...)
	if _, err := decodeBytes(raw); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDecodeCorruptPrefixNoOverAllocation(t *testing.T) {
	// A header frame claiming a huge under-limit payload against a short
	// file must fail without allocating near the claim.
	var buf bytes.Buffer
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], 48<<20)
	buf.Write(hdr[:])
	buf.WriteString("short")

	allocated := allocBytes(func() {
		if _, err := decodeBytes(buf.Bytes()); err != io.ErrUnexpectedEOF {
			t.Errorf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})
	if allocated > 1<<20 {
		t.Fatalf("corrupt 48 MiB prefix allocated %d bytes", allocated)
	}
}

// TestIndexClaimsCheckedBeforeAllocation hands decodeBytes well-formed
// headers (valid CRC, every field parses) whose index lies about what follows.
// Each is an error, and none allocates by the claim.
func TestIndexClaimsCheckedBeforeAllocation(t *testing.T) {
	slab := slabTypeOf(reflect.TypeOf([]kv{}))
	body := make([]byte, 32) // two kv records
	ok := frameInfo{Bucket: 1, Len: 32, Count: 2, Sum: crc32.ChecksumIEEE(body), Slab: slab.Name, Elem: 16}
	if _, err := decodeBytes(craft(t, header{NChunks: 3, Index: []frameInfo{ok}}, body)); err != nil {
		t.Fatalf("the honest index is rejected: %v", err)
	}
	with := func(f func(*frameInfo)) frameInfo { fi := ok; f(&fi); return fi }
	for name, raw := range map[string][]byte{
		"frame past the file": craft(t, header{NChunks: 3, Index: []frameInfo{
			with(func(fi *frameInfo) { fi.Len, fi.Count = 48<<20, 3<<20 })}}, body),
		"gob frame past the file": craft(t, header{NChunks: 3, Index: []frameInfo{
			{Bucket: 1, Len: 48 << 20}}}, body),
		"count x size past the frame": craft(t, header{NChunks: 3, Index: []frameInfo{
			with(func(fi *frameInfo) { fi.Count = 3 << 20 })}}, body),
		"count x size short of the frame": craft(t, header{NChunks: 3, Index: []frameInfo{
			with(func(fi *frameInfo) { fi.Count = 1 })}}, body),
		"element size of another type": craft(t, header{NChunks: 3, Index: []frameInfo{
			with(func(fi *frameInfo) { fi.Elem, fi.Count = 8, 4 })}}, body),
		"zero element size": craft(t, header{NChunks: 3, Index: []frameInfo{
			with(func(fi *frameInfo) { fi.Elem = 0 })}}, body),
		"unknown slab type": craft(t, header{NChunks: 3, Index: []frameInfo{
			with(func(fi *frameInfo) { fi.Slab = "no/such|[]pkg.T" })}}, body),
		"negative length": craft(t, header{NChunks: 3, Index: []frameInfo{
			with(func(fi *frameInfo) { fi.Len = -32 })}}, body),
		"bucket out of range": craft(t, header{NChunks: 3, Index: []frameInfo{
			with(func(fi *frameInfo) { fi.Bucket = 3 })}}, body),
		"buckets out of order": craft(t, header{NChunks: 3, Index: []frameInfo{
			with(func(fi *frameInfo) { fi.Bucket = 2 }), ok}}, body, body),
		"duplicate bucket":          craft(t, header{NChunks: 3, Index: []frameInfo{ok, ok}}, body, body),
		"more frames than buckets":  craft(t, header{NChunks: 1, Index: []frameInfo{ok, ok}}, body, body),
		"bucket count past the cap": craft(t, header{NChunks: MaxChunks + 1}),
		"unindexed bytes":           craft(t, header{NChunks: 3, Index: []frameInfo{ok}}, body, body),
	} {
		var err error
		allocated := allocBytes(func() { _, err = decodeBytes(raw) })
		if err == nil {
			t.Errorf("%s: decoded cleanly", name)
		}
		if allocated > 1<<20 {
			t.Errorf("%s: allocated %d bytes", name, allocated)
		}
	}
}

func TestDecodeFrameTooLarge(t *testing.T) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrame+1)
	var tooBig *ErrFrameTooLarge
	if _, err := decodeBytes(hdr[:]); !errors.As(err, &tooBig) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestEncodeUnencodableChunk(t *testing.T) {
	e := &Entry{Space: "cache", ID: 1, Part: 0, Owner: -1,
		Chunks: []any{[]func(){func() {}}}}
	if _, err := Encode(io.Discard, e); err == nil {
		t.Fatal("function chunk encoded cleanly")
	}
}

// benchEntry is one map partition of spill-tight's shape — 15 700
// records over 4 buckets — as {int64,int64} slabs or as its string-keyed
// twin, which takes the gob fallback.
func benchEntry(strings bool) *Entry {
	const records, buckets = 15700, 4
	e := &Entry{Space: "shuffle", ID: 1, Part: 0, Owner: 0, Chunks: make([]any, buckets)}
	for b := range e.Chunks {
		if strings {
			ch := make([]skv, records/buckets)
			for i := range ch {
				ch[i] = skv{K: fmt.Sprintf("key-%07d", i*buckets+b), V: int64(i)}
			}
			e.Chunks[b] = ch
		} else {
			ch := make([]kv, records/buckets)
			for i := range ch {
				ch[i] = kv{K: int64(i*buckets + b), V: int64(i)}
			}
			e.Chunks[b] = ch
		}
	}
	return e
}

// TestReadChunkAllocsBoundedByBucket pins what the slab path may
// allocate: reading one bucket, that bucket's bytes and a little for
// the header; writing an entry, nothing the size of a chunk — the file
// is written from the slices themselves.
func TestReadChunkAllocsBoundedByBucket(t *testing.T) {
	const slack = 4 << 10
	e := benchEntry(false)
	path := filepath.Join(t.TempDir(), "s.spill")
	write := func() {
		if _, err := WriteEntryFile(path, e); err != nil {
			t.Fatal(err)
		}
	}
	write() // registers the type, off the books
	if got := leastAllocBytes(write); got > slack {
		t.Errorf("writing a slab entry allocated %d bytes, want <= %d", got, slack)
	}
	bucket := uint64(len(e.Chunks[2].([]kv)) * 16)
	got := leastAllocBytes(func() {
		if _, err := ReadChunkFile(path, "shuffle", 1, 0, 2); err != nil {
			t.Fatal(err)
		}
	})
	if got > bucket+slack {
		t.Errorf("reading one bucket of %d bytes allocated %d, want <= %d", bucket, got, bucket+slack)
	}
}

// BenchmarkSpillEntry times a spill file out and back — whole and one
// bucket of it — for a slab entry and its gob-fallback twin. The file
// stays in the page cache: this is encode, syscall and decode cost.
func BenchmarkSpillEntry(b *testing.B) {
	for _, shape := range []struct {
		name    string
		strings bool
	}{{"slab", false}, {"gob", true}} {
		e := benchEntry(shape.strings)
		path := filepath.Join(b.TempDir(), shape.name+".spill")
		size, err := WriteEntryFile(path, e)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape.name+"/write", func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := WriteEntryFile(path, e); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(shape.name+"/read-whole", func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadEntryFile(path, "shuffle", 1, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(shape.name+"/read-bucket", func(b *testing.B) {
			b.SetBytes(size / int64(len(e.Chunks)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadChunkFile(path, "shuffle", 1, 0, i%len(e.Chunks)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestAccountantBudgetAndLRU(t *testing.T) {
	a := NewAccountant(100)
	var evicted []string
	mk := func(name string, ok bool) func(*handle) bool {
		return func(*handle) bool {
			evicted = append(evicted, name)
			return ok
		}
	}
	ha := a.admit(40, mk("a", true))
	a.evict()
	hb := a.admit(40, mk("b", true))
	a.evict()
	if got := a.Stats(); got.Resident != 80 || len(evicted) != 0 {
		t.Fatalf("under budget evicted: %+v %v", got, evicted)
	}
	a.touch(ha) // b becomes the LRU victim
	a.admit(40, mk("c", true))
	a.evict()
	if want := []string{"b"}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	st := a.Stats()
	if st.Resident != 80 {
		t.Fatalf("resident %d, want 80", st.Resident)
	}
	if st.Peak > 100 {
		t.Fatalf("stabilized peak %d exceeds budget", st.Peak)
	}
	// Release drops resident without an eviction.
	a.release(ha)
	if got := a.Stats().Resident; got != 40 {
		t.Fatalf("after release: resident %d, want 40", got)
	}
	a.release(ha) // idempotent
	_ = hb
}

func TestAccountantPinnedOnFailure(t *testing.T) {
	a := NewAccountant(50)
	calls := 0
	a.admit(60, func(*handle) bool { calls++; return false })
	a.evict()
	a.evict() // pinned entries are never retried
	if calls != 1 {
		t.Fatalf("failed eviction retried: %d calls", calls)
	}
	st := a.Stats()
	if st.Resident != 60 || st.EncodeFailures != 1 {
		t.Fatalf("pinned stats: %+v", st)
	}
}

func TestAccountantUnboundedTracksPeak(t *testing.T) {
	a := NewAccountant(0)
	evictions := 0
	for i := 0; i < 5; i++ {
		a.admit(10, func(*handle) bool { evictions++; return true })
		a.evict()
	}
	st := a.Stats()
	if evictions != 0 || st.Resident != 50 || st.Peak != 50 {
		t.Fatalf("unbounded: evictions=%d stats=%+v", evictions, st)
	}
}

// allocBytes measures heap bytes allocated while f runs.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// leastAllocBytes is the least allocBytes over five runs of f, for an f
// that does the same work every run. TotalAlloc is process-wide, so one
// run can also count what other goroutines allocate meanwhile (a
// previous test's executors winding down, the runtime's own); the least
// of five runs is what f itself allocates.
func leastAllocBytes(f func()) uint64 {
	least := allocBytes(f)
	for i := 1; i < 5; i++ {
		least = min(least, allocBytes(f))
	}
	return least
}
