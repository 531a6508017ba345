// Package spill is the two-level storage layer under the engine's
// memory budget: a spill-file codec that moves chunk lists between
// memory and a local spill directory (the paper's RAMDisk→SSD step of
// the storage hierarchy), and an LRU accountant that decides what to
// move when resident bytes exceed the budget.
//
// One spill file holds one Entry, laid out so a reader can take one
// bucket of it without touching the others:
//
//	[len u32][crc u32][header]            the header frame
//	frame 0 | frame 1 | ... | frame k-1   one per non-nil chunk, back to back
//
// The header carries the provenance (which space, which shuffle/node,
// which partition, which owner produced it) and an index with, per
// non-nil chunk, its bucket, byte length, record count and CRC32. A
// frame's offset is the sum of the lengths before it, so frames cannot
// overlap or leave gaps, and the lengths must add up to the file's size
// exactly — every claim in the index is checked against the bytes that
// exist before anything is allocated on its word.
//
// A frame is one of two things, chosen by the chunk's element type. A
// chunk of fixed-width, pointer-free elements (integers, floats, arrays
// and structs of them) is a slab: the slice's memory as it stands,
// checksummed in place and written straight from the slice, read back
// by allocating the typed slice once and reading into it. Raw memory is
// sound because a spill file is only ever read by the process that
// wrote it; the index still names the type and its element size, and
// the reader checks both against the type it registered when writing.
// Anything else (string keys, record-boxed []any, arbitrary cache
// types) is a gob frame, its concrete type registered with gob on first
// encode. A chunk type gob cannot encode (functions, channels) fails
// the encode cleanly — the accountant then pins the entry resident
// instead of spilling it.
//
// Spill files live on real disks: the header and every frame carry a
// CRC32, and a bit-flipped body must surface as an error the engine can
// repair through lineage, never as silently wrong data. Damage is
// detected by the read that touches it — a flipped byte in one frame
// fails that bucket's read (and a whole-entry Decode), not a read of
// its neighbours.
package spill

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"reflect"
	"sync"
	"unsafe"
)

const (
	// MaxFrame bounds the header frame and every gob frame (64 MiB): the
	// ceiling that turns a corrupt length into an error instead of an
	// allocation, enforced on a gob frame's way out too so that a chunk
	// no reader would accept is never written.
	MaxFrame = 64 << 20
	// MaxChunks bounds an entry's bucket count (reduce partitions), so a
	// corrupt header cannot force a large chunk-slice allocation.
	MaxChunks = 1 << 14
	// prefixLen is the header frame's length-and-checksum prefix.
	prefixLen = 8
)

// ErrFrameTooLarge rejects a frame whose length exceeds MaxFrame.
type ErrFrameTooLarge struct {
	Length, Max int
}

func (e *ErrFrameTooLarge) Error() string {
	return fmt.Sprintf("spill: frame of %d bytes exceeds limit %d", e.Length, e.Max)
}

// ErrChecksum reports a header or frame whose bytes do not match their
// CRC32 — on-disk corruption the engine repairs by recomputing through
// lineage.
var ErrChecksum = errors.New("spill: frame checksum mismatch")

// Entry is one spilled unit: a chunk list with its provenance. For the
// shuffle store, ID/Part/Owner are the engine shuffle ID, map partition,
// and producing executor; for the rdd cache, ID is the plan-node ID,
// Part the partition, and Owner -1.
type Entry struct {
	Space string // "shuffle" or "cache"
	ID    int
	Part  int
	Owner int
	// Chunks is the per-bucket chunk list, nil where a bucket is empty.
	Chunks []any
}

// header is the payload of a spill file's first frame. It is written
// field by field as varints and length-prefixed strings (encodeHeader,
// parseHeader): every restore reads one, and a gob decoder's set-up
// would cost more than the bucket read it precedes.
type header struct {
	Space   string
	ID      int
	Part    int
	Owner   int
	NChunks int // len(Entry.Chunks), nils included
	// Index lists the frames that follow in file order, ascending by
	// bucket.
	Index []frameInfo
}

// frameInfo locates and describes one non-nil chunk's frame.
type frameInfo struct {
	Bucket int    // index into Entry.Chunks
	Len    int64  // frame bytes; the offset is the sum of the Lens before
	Count  int    // records in the chunk
	Sum    uint32 // CRC32 (IEEE) of the frame bytes
	Slab   string // slab type name; "" marks a gob frame
	Elem   int    // slab element size in bytes, 0 for a gob frame
}

// gobChunk is a gob frame's payload.
type gobChunk struct{ Chunk any }

// slabType is a chunk type whose memory can be written as it stands.
type slabType struct {
	name  string
	slice reflect.Type
	elem  int
}

// Slab types are classified once and remembered by type (nil = not a
// slab) and by name, which is how a reader finds the type an index
// entry names. A reader only ever meets names its own process wrote, so
// an unknown name is corruption.
var (
	slabMu     sync.RWMutex
	slabByType = map[reflect.Type]*slabType{}
	slabByName = map[string]*slabType{}
)

// slabTypeOf returns t's slab description, or nil when chunks of type t
// take the gob fallback: t is not a slice, its elements hold pointers
// or have no fixed width, or its name is already taken by another type.
func slabTypeOf(t reflect.Type) *slabType {
	slabMu.RLock()
	st, known := slabByType[t]
	slabMu.RUnlock()
	if known {
		return st
	}
	slabMu.Lock()
	defer slabMu.Unlock()
	if st, known := slabByType[t]; known {
		return st
	}
	if t.Kind() == reflect.Slice && t.Elem().Size() > 0 && fixedWidth(t.Elem()) {
		// The package path tells apart same-named types of two packages
		// that share a last path element.
		name := t.Elem().PkgPath() + "|" + t.String()
		if _, taken := slabByName[name]; !taken {
			st = &slabType{name: name, slice: t, elem: int(t.Elem().Size())}
			slabByName[name] = st
		}
	}
	slabByType[t] = st
	return st
}

// fixedWidth reports whether every bit pattern of t's memory is a valid
// t holding no pointer: integer and float kinds, arrays and structs of
// them (padding included — it is carried, not interpreted).
func fixedWidth(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	case reflect.Array:
		return fixedWidth(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !fixedWidth(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// slabBytes returns the memory behind a slab-typed slice as bytes: what
// Encode checksums and writes, and what a read fills. Together with
// makeSlab it is the only unsafe code here — the peer wire can frame
// the same two calls.
func slabBytes(v reflect.Value, elem int) []byte {
	if v.Len() == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(v.UnsafePointer()), v.Len()*elem)
}

// makeSlab allocates a chunk of count elements of st and returns it
// with its memory, for the reader to fill.
func makeSlab(st *slabType, count int) (any, []byte) {
	v := reflect.MakeSlice(st.slice, count, count)
	return v.Interface(), slabBytes(v, st.elem)
}

// Chunk types that take the gob fallback are registered with gob on
// first encode so interface values round-trip to their exact concrete
// types. Registration is process-global (gob's registry is),
// deduplicated here.
var (
	regMu      sync.Mutex
	registered = map[reflect.Type]bool{}
)

// registerChunk registers a chunk's concrete type (and, for
// record-boxed []any chunks, each element's type). gob.Register panics
// on pathological name collisions; that is converted to an error so an
// unencodable chunk fails its eviction instead of the process.
func registerChunk(ch any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("spill: registering chunk type %T: %v", ch, r)
		}
	}()
	regMu.Lock()
	defer regMu.Unlock()
	reg := func(v any) {
		t := reflect.TypeOf(v)
		if t == nil || registered[t] {
			return
		}
		gob.Register(v)
		registered[t] = true
	}
	reg(ch)
	if boxed, ok := ch.([]any); ok {
		for _, v := range boxed {
			if v != nil {
				reg(v)
			}
		}
	}
	return nil
}

// chunkLen is a chunk's record count: its length when it is a slice.
func chunkLen(v reflect.Value) int {
	if v.Kind() == reflect.Slice {
		return v.Len()
	}
	return 0
}

// encodeChunk turns one non-nil chunk into its frame bytes and index
// entry (Bucket left for the caller). A slab's bytes alias the chunk's
// own memory.
func encodeChunk(ch any) ([]byte, frameInfo, error) {
	v := reflect.ValueOf(ch)
	fi := frameInfo{Count: chunkLen(v)}
	var frame []byte
	if st := slabTypeOf(v.Type()); st != nil {
		frame = slabBytes(v, st.elem)
		fi.Slab, fi.Elem = st.name, st.elem
	} else {
		if err := registerChunk(ch); err != nil {
			return nil, fi, err
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(gobChunk{ch}); err != nil {
			return nil, fi, err
		}
		if buf.Len() > MaxFrame {
			return nil, fi, &ErrFrameTooLarge{Length: buf.Len(), Max: MaxFrame}
		}
		frame = buf.Bytes()
	}
	fi.Len, fi.Sum = int64(len(frame)), crc32.ChecksumIEEE(frame)
	return frame, fi, nil
}

// encodeHeader builds the header frame: length, CRC32, payload. With at
// most MaxChunks index entries it stays far below MaxFrame.
func encodeHeader(h *header) []byte {
	b := make([]byte, prefixLen, prefixLen+64+len(h.Space)+len(h.Index)*48)
	b = appendString(b, h.Space)
	b = binary.AppendVarint(b, int64(h.ID))
	b = binary.AppendVarint(b, int64(h.Part))
	b = binary.AppendVarint(b, int64(h.Owner))
	b = binary.AppendUvarint(b, uint64(h.NChunks))
	b = binary.AppendUvarint(b, uint64(len(h.Index)))
	for _, fi := range h.Index {
		b = binary.AppendUvarint(b, uint64(fi.Bucket))
		b = binary.AppendUvarint(b, uint64(fi.Len))
		b = binary.AppendUvarint(b, uint64(fi.Count))
		b = binary.BigEndian.AppendUint32(b, fi.Sum)
		b = appendString(b, fi.Slab)
		b = binary.AppendUvarint(b, uint64(fi.Elem))
	}
	payload := b[prefixLen:]
	binary.BigEndian.PutUint32(b[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[4:], crc32.ChecksumIEEE(payload))
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// minFrameInfo is the fewest bytes one index entry takes in a header:
// four one-byte varints, the checksum and an empty name.
const minFrameInfo = 9

// parseHeader decodes a header payload. Counts and lengths are read as
// non-negative ints (anything wider is an error), and the index is
// sized only after its claimed length is known to fit the payload.
func parseHeader(p []byte) (*header, error) {
	c := cursor{p: p}
	h := &header{Space: c.str(), ID: int(c.varint()), Part: int(c.varint()), Owner: int(c.varint())}
	h.NChunks = c.int()
	frames := c.int()
	if c.err == nil && (h.NChunks > MaxChunks || frames > h.NChunks || frames > len(c.p)/minFrameInfo) {
		return nil, fmt.Errorf("spill: header claims %d chunks, %d frames", h.NChunks, frames)
	}
	if c.err == nil && frames > 0 {
		h.Index = make([]frameInfo, frames)
	}
	for i := range h.Index {
		h.Index[i] = frameInfo{Bucket: c.int(), Len: int64(c.int()), Count: c.int(), Sum: c.u32(), Slab: c.str(), Elem: c.int()}
	}
	if c.err == nil && len(c.p) != 0 {
		c.err = fmt.Errorf("%d bytes after the index", len(c.p))
	}
	if c.err != nil {
		return nil, fmt.Errorf("spill: decoding header: %w", c.err)
	}
	return h, nil
}

// cursor reads header fields off a payload; the first failure sticks
// and every later read returns zero.
type cursor struct {
	p   []byte
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = io.ErrUnexpectedEOF
	}
	c.p = nil
}

func (c *cursor) varint() int64 {
	v, n := binary.Varint(c.p)
	if n <= 0 {
		c.fail()
		return 0
	}
	c.p = c.p[n:]
	return v
}

// int reads an unsigned varint that must fit a non-negative int.
func (c *cursor) int() int {
	v, n := binary.Uvarint(c.p)
	if n <= 0 || v > math.MaxInt {
		c.fail()
		return 0
	}
	c.p = c.p[n:]
	return int(v)
}

func (c *cursor) u32() uint32 {
	if len(c.p) < 4 {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(c.p)
	c.p = c.p[4:]
	return v
}

func (c *cursor) str() string {
	n := c.int()
	if n > len(c.p) {
		c.fail()
		return ""
	}
	s := string(c.p[:n])
	c.p = c.p[n:]
	return s
}

// Encode writes one entry to w and returns the bytes written. Chunk
// types that gob cannot encode return an error with nothing guaranteed
// about partial output — callers write to a temporary file and discard
// it on error. Slabs go to w straight from the chunks' memory; gob
// frames are staged, since the header that precedes them states their
// lengths.
func Encode(w io.Writer, e *Entry) (int64, error) {
	if len(e.Chunks) > MaxChunks {
		return 0, fmt.Errorf("spill: %d chunks exceeds limit %d", len(e.Chunks), MaxChunks)
	}
	h := header{Space: e.Space, ID: e.ID, Part: e.Part, Owner: e.Owner, NChunks: len(e.Chunks)}
	frames := [][]byte{nil} // the header frame's place
	for i, ch := range e.Chunks {
		if ch == nil {
			continue
		}
		frame, fi, err := encodeChunk(ch)
		if err != nil {
			return 0, fmt.Errorf("spill: encoding chunk %d (%T): %w", i, ch, err)
		}
		fi.Bucket = i
		h.Index = append(h.Index, fi)
		frames = append(frames, frame)
	}
	frames[0] = encodeHeader(&h)
	written := int64(0)
	for _, b := range frames {
		n, err := w.Write(b)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// readFullAt fills p from offset off of r; a short read is truncation.
func readFullAt(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readHeader reads and validates the header frame of an entry occupying
// exactly size bytes of r, returning it with the offset of the first
// frame. Every length the file claims — the header's own, each frame's,
// each slab's count × element size — is checked against size before it
// sizes an allocation, so a corrupt claim costs nothing.
func readHeader(r io.ReaderAt, size int64) (*header, int64, error) {
	var prefix [prefixLen]byte
	if size < prefixLen {
		return nil, 0, io.ErrUnexpectedEOF
	}
	if err := readFullAt(r, prefix[:], 0); err != nil {
		return nil, 0, err
	}
	length := int64(binary.BigEndian.Uint32(prefix[:4]))
	if length > MaxFrame {
		return nil, 0, &ErrFrameTooLarge{Length: int(length), Max: MaxFrame}
	}
	if prefixLen+length > size {
		return nil, 0, io.ErrUnexpectedEOF
	}
	payload := make([]byte, length)
	if err := readFullAt(r, payload, prefixLen); err != nil {
		return nil, 0, err
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(prefix[4:]) {
		return nil, 0, ErrChecksum
	}
	h, err := parseHeader(payload)
	if err != nil {
		return nil, 0, err
	}
	data := prefixLen + length
	left, prev := size-data, -1
	for _, fi := range h.Index {
		if fi.Bucket <= prev || fi.Bucket >= h.NChunks {
			return nil, 0, fmt.Errorf("spill: frame for bucket %d after %d, of %d buckets", fi.Bucket, prev, h.NChunks)
		}
		prev = fi.Bucket
		if fi.Len > left {
			return nil, 0, io.ErrUnexpectedEOF
		}
		left -= fi.Len
		switch {
		case fi.Slab == "" && fi.Elem != 0:
			return nil, 0, fmt.Errorf("spill: bucket %d: gob frame with element size %d", fi.Bucket, fi.Elem)
		case fi.Slab == "" && fi.Len > MaxFrame:
			return nil, 0, &ErrFrameTooLarge{Length: int(fi.Len), Max: MaxFrame}
		case fi.Slab != "" && (fi.Elem == 0 || fi.Len%int64(fi.Elem) != 0 || fi.Len/int64(fi.Elem) != int64(fi.Count)):
			return nil, 0, fmt.Errorf("spill: bucket %d: slab of %d × %d bytes in a frame of %d",
				fi.Bucket, fi.Count, fi.Elem, fi.Len)
		}
	}
	if left != 0 {
		return nil, 0, fmt.Errorf("spill: %d trailing bytes after entry", left)
	}
	return h, data, nil
}

// readChunk reads the one frame fi describes, at offset off of r, and
// decodes it: a slab into a freshly allocated slice of its registered
// type, anything else through gob.
func readChunk(r io.ReaderAt, off int64, fi frameInfo) (any, error) {
	var ch any
	var frame []byte
	if fi.Slab != "" {
		slabMu.RLock()
		st := slabByName[fi.Slab]
		slabMu.RUnlock()
		if st == nil || st.elem != fi.Elem {
			return nil, fmt.Errorf("spill: bucket %d: no slab type %q of %d-byte elements", fi.Bucket, fi.Slab, fi.Elem)
		}
		ch, frame = makeSlab(st, fi.Count)
	} else {
		frame = make([]byte, fi.Len)
	}
	if err := readFullAt(r, frame, off); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(frame) != fi.Sum {
		return nil, ErrChecksum
	}
	if fi.Slab != "" {
		return ch, nil
	}
	var gc gobChunk
	if err := gobDecode(frame, &gc); err != nil {
		return nil, fmt.Errorf("spill: decoding bucket %d: %w", fi.Bucket, err)
	}
	if gc.Chunk == nil || chunkLen(reflect.ValueOf(gc.Chunk)) != fi.Count {
		return nil, fmt.Errorf("spill: bucket %d: frame does not hold the %d records indexed", fi.Bucket, fi.Count)
	}
	return gc.Chunk, nil
}

// readEntry reads every frame h indexes, the first at offset off of r.
func readEntry(r io.ReaderAt, h *header, off int64) (*Entry, error) {
	e := &Entry{Space: h.Space, ID: h.ID, Part: h.Part, Owner: h.Owner, Chunks: make([]any, h.NChunks)}
	for _, fi := range h.Index {
		ch, err := readChunk(r, off, fi)
		if err != nil {
			return nil, err
		}
		e.Chunks[fi.Bucket] = ch
		off += fi.Len
	}
	return e, nil
}

// Decode reads the entry that occupies exactly size bytes of r.
// Truncation, corrupt lengths, checksum mismatches, malformed gob,
// out-of-order or out-of-range buckets, unknown slab types and trailing
// bytes all return errors; Decode never panics and never allocates more
// than the bytes actually present.
func Decode(r io.ReaderAt, size int64) (*Entry, error) {
	h, off, err := readHeader(r, size)
	if err != nil {
		return nil, err
	}
	return readEntry(r, h, off)
}

// gobDecode decodes one gob payload, converting any decoder panic into
// an error (defense in depth over gob's own hardening).
func gobDecode(payload []byte, v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("spill: gob panic: %v", r)
		}
	}()
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// WriteEntryFile encodes e to path via a temporary sibling and rename,
// so readers never observe a half-written spill file. Returns the bytes
// written.
func WriteEntryFile(path string, e *Entry) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	n, err := Encode(f, e)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, nil
}

// openEntry opens the spill file at path and validates its header's
// provenance against what the caller expects to find there. The caller
// closes the file and reads frames from offset off of it.
func openEntry(path, space string, id, part int) (f *os.File, h *header, off int64, err error) {
	if f, err = os.Open(path); err != nil {
		return nil, nil, 0, err
	}
	st, err := f.Stat()
	if err == nil {
		h, off, err = readHeader(f, st.Size())
	}
	if err == nil && (h.Space != space || h.ID != id || h.Part != part) {
		err = fmt.Errorf("holds %s/%d/%d, want %s/%d/%d", h.Space, h.ID, h.Part, space, id, part)
	}
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("spill: %s: %w", path, err)
	}
	return f, h, off, nil
}

// ReadEntryFile decodes the whole entry at path and validates its
// provenance against what the caller expects to find there.
func ReadEntryFile(path, space string, id, part int) (*Entry, error) {
	f, h, off, err := openEntry(path, space, id, part)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	e, err := readEntry(f, h, off)
	if err != nil {
		return nil, fmt.Errorf("spill: %s: %w", path, err)
	}
	return e, nil
}

// ReadChunkFile reads one bucket of the entry at path — header, then
// the one frame, nothing of the other buckets — with ReadEntryFile's
// provenance check. An empty bucket is nil, as it was put.
func ReadChunkFile(path, space string, id, part, bucket int) (any, error) {
	f, h, off, err := openEntry(path, space, id, part)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if bucket < 0 || bucket >= h.NChunks {
		return nil, fmt.Errorf("spill: %s: bucket %d of %d", path, bucket, h.NChunks)
	}
	for _, fi := range h.Index {
		if fi.Bucket == bucket {
			ch, err := readChunk(f, off, fi)
			if err != nil {
				return nil, fmt.Errorf("spill: %s: %w", path, err)
			}
			return ch, nil
		}
		off += fi.Len
	}
	return nil, nil
}
