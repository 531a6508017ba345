// Package dist is the distributed driver–executor runtime: it splits
// the engine into a real driver process and N executor processes
// talking over TCP, with a network shuffle service between the
// executors.
//
// The wire unit is the chunk contract of PR-5: map output buckets are
// typed slices boxed once, stored in each executor's local
// engine.ShuffleStore and served to remote reducers by a per-executor
// shuffle server. The driver schedules stages on its existing
// engine.Runtime — each remote executor is one engine executor whose
// task bodies proxy over the control connection — so executor loss
// flows through the engine's sticky dead set and InvalidateOwner
// provenance exactly as in the local runtime, and lineage recovery
// re-executes only the invalidated map partitions.
//
// Transport is one gob stream per connection, cut into length-prefixed
// frames of one message each (Codec, spill.ReadFrame): gob's per-type
// set-up is paid once per connection, not once per message. A shuffle answer
// carries fixed-width chunks outside the gob stream, as raw frames of
// their memory, and executors keep their peer connections warm in a
// pool (shuffle.go). Liveness is
// registration plus periodic heartbeats with a timeout-driven monitor
// (liveness.go); jobs are named map/step/reduce computations both
// binaries compile in (job.go), since closures cannot cross a process
// boundary.
package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"reflect"
	"sync"

	"hpcmr/internal/spill"
)

// ---- control-plane messages (driver <-> executor, client -> driver) ----

// Hello registers an executor with the driver: its claimed ID, the
// address its shuffle server listens on, and the fingerprint of the
// memory layout its raw slab frames assume (wireLayout) — the driver
// refuses an executor whose layout differs from its own, so peers that
// could misread each other's slabs never share a cluster.
type Hello struct {
	ID          int
	ShuffleAddr string
	WireLayout  uint64
}

// HelloAck accepts or rejects a registration. On acceptance it carries
// the cluster geometry — Cores is how many tasks the executor runs at
// once — and the JSON-encoded part of the fault plan that acts on the
// executor itself (slow and fetch-loss events), which it replays
// in-process; the driver decides crashes, hangs and task failures.
type HelloAck struct {
	OK            bool
	Reason        string
	Executors     int
	Cores         int
	TransientPlan []byte
}

// Heartbeat is the executor's periodic liveness beacon.
type Heartbeat struct {
	ID  int
	Seq uint64
}

// Loc tells a gathering task where one map partition's output lives.
type Loc struct {
	MapPart int
	Exec    int
	Addr    string
}

// RunTask dispatches one task attempt to an executor. Every task is
// gather → call → put, and the fields name each phase outright. Gather
// is the shuffle whose reduce partition Part is fetched before the
// call (noShuffle: none, a map task), with Locations listing every
// gathered map partition's owner as of dispatch time. Put is the
// shuffle the call's buckets are stored into as map partition Part
// (noShuffle: none, a reduce task — its output is TaskDone.Result).
// Step is the stage's position in the job's chain: 0 the map stage, g
// superstep g, one past the last superstep the reduce. Kind only
// selects the job function called between the two phases.
type RunTask struct {
	Seq       uint64
	Kind      string
	Spec      JobSpec
	Gather    int
	Put       int
	Part      int
	Attempt   int
	Step      int
	Locations []Loc
}

// noShuffle is the Gather or Put of a task without that phase; real
// IDs start at 1 (engine.ShuffleStore.Register).
const noShuffle = 0

// Task kinds: which job function a task calls.
const (
	KindMap    = "map"
	KindReduce = "reduce"
	KindStep   = "step"
)

// TaskDone reports one task attempt's outcome back to the driver.
type TaskDone struct {
	Seq uint64
	// Err is the attempt's failure, "" on success.
	Err string
	// Miss is set when the failure was missing map output: the task's
	// gather found an invalidated partition. The driver surfaces
	// it as an engine.MapOutputMissingError so lineage recovery engages.
	Miss        bool
	MissShuffle int
	MissMapPart int
	// UnreachableExec (-1 none) reports a peer whose shuffle server
	// could not be reached after bounded retries — the fetch-failure
	// signal the driver treats as an executor loss.
	UnreachableExec int
	// Records/Bytes are the shuffle volume a task put.
	Records int64
	Bytes   int64
	// BucketBytes is the written volume per reduce bucket — the weights
	// the driver records against its placeholder ownership row so
	// locality scoring can rank owners without holding the data.
	BucketBytes []int64
	// Local*/Remote* split a task's gathered volume by path: local
	// chunks came zero-copy from the executor's own store, remote ones
	// over the network shuffle service.
	LocalRecords, LocalBytes   int64
	RemoteRecords, RemoteBytes int64
	// FetchSeconds is the task's total gather wall time.
	FetchSeconds float64
	// Result is a reduce task's encoded output partition.
	Result []byte
}

// DropShuffle tells executors a shuffle's data is no longer needed.
type DropShuffle struct {
	Shuffle int
}

// SubmitJob asks a running driver (over its client listener) to run a
// job; JobResult answers it.
type SubmitJob struct {
	Spec JobSpec
}

// JobResult carries a submitted job's encoded result or failure.
type JobResult struct {
	Err    string
	Result []byte
}

// ShutdownReq asks a running driver to tear the cluster down;
// ShutdownAck confirms before the driver exits.
type ShutdownReq struct{}

// ShutdownAck acknowledges a ShutdownReq.
type ShutdownAck struct{}

// ---- data-plane messages (executor <-> executor) ----

// ShuffleReq asks a peer's shuffle server for the chunks of one reduce
// partition across the map partitions that peer owns.
type ShuffleReq struct {
	Shuffle    int
	ReducePart int
	MapParts   []int
}

// ShuffleResp answers a ShuffleReq. Chunks aligns with the request's
// MapParts (nil entries are empty buckets). Miss reports the first
// requested map partition the server does not hold — the remote form of
// engine.MapOutputMissingError. Err covers every other failure.
//
// Slabs lists, by ascending chunk index, the chunks that do not ride in
// Chunks (their entry there is nil) but follow the response as raw
// frames, one each, in that order (ShuffleServer, recvChunks).
type ShuffleResp struct {
	Err         string
	Miss        bool
	MissMapPart int
	Chunks      []any
	Slabs       []SlabHead
}

// SlabHead describes one chunk that crosses the wire as its memory: a
// non-empty slice of a wire slab type (wireSlabs), Count elements of
// Elem bytes each.
type SlabHead struct {
	Chunk int    // index into ShuffleResp.Chunks
	Name  string // spill.SlabType.Name
	Elem  int
	Count int
}

// KV is the chunk record of integer-keyed built-in jobs (keyed-sum).
type KV struct {
	K, V int64
}

// SKV is the chunk record of string-keyed built-in jobs (wordcount).
type SKV struct {
	K string
	V int64
}

func init() {
	// Chunks travel as gob interface values inside ShuffleResp.Chunks,
	// so every concrete chunk type must be registered: the ones the
	// built-in jobs put. (Messages themselves are not interface values —
	// see messageTypes.) The fixed-width ones usually cross as raw slabs
	// instead, but an empty one still goes by gob.
	gob.Register([]KV(nil))
	gob.Register([]SKV(nil))
	gob.Register([]PRRec(nil))
}

// wireSlabTypes are the chunk types that cross the shuffle wire as raw
// memory; every other type, and an empty chunk of these, is gob. Only
// these may be slabs: a receiver resolves a slab's name in its own
// spill registry, and a name its process never classified would be
// refused — a healthy peer declared lost on every fetch.
var wireSlabTypes = []any{[]KV(nil), []PRRec(nil)}

// wireSlabs is wireSlabTypes by slab name, registered at start-up.
var wireSlabs = func() map[string]bool {
	names := map[string]bool{}
	for _, ch := range wireSlabTypes {
		st, _ := spill.SlabOf(ch)
		names[st.Name] = true
	}
	return names
}()

// wireLayout fingerprints what a raw slab frame assumes both ends
// share: the byte order, and for each wire slab type its name and the
// kind, size and offset of every field. Executors report it in Hello
// and the driver refuses a mismatch, so a layout difference is a
// registration failure rather than chunks misread on every fetch.
var wireLayout = func() uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.NativeEndian, uint16(1)) // hash.Hash writes never fail
	for _, ch := range wireSlabTypes {
		st, _ := spill.SlabOf(ch)
		fmt.Fprintf(h, "%s:", st.Name)
		writeLayout(h, reflect.TypeOf(ch).Elem())
	}
	return h.Sum64()
}()

// writeLayout describes t's memory: kind and size, then per array
// element or struct field (with its offset) the same, recursively.
func writeLayout(w io.Writer, t reflect.Type) {
	fmt.Fprintf(w, "(%s %d", t.Kind(), t.Size())
	switch t.Kind() {
	case reflect.Array:
		fmt.Fprintf(w, " x%d", t.Len())
		writeLayout(w, t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			fmt.Fprintf(w, " @%d", f.Offset)
			writeLayout(w, f.Type)
		}
	}
	fmt.Fprint(w, ")")
}

// messageTypes lists every message a Codec carries. A message's index
// is the tag byte that opens its frame and tells the receiver which
// struct to decode the rest into. Sending the concrete struct, rather
// than wrapping it in an interface-typed field for gob to name, spares
// every message its type-name string and — the reason it is done — one
// whole extra copy of the payload, which gob makes when it encodes an
// interface value. Driver and executors are one binary, so the order
// carries no compatibility burden.
var messageTypes = [...]reflect.Type{
	reflect.TypeOf(Hello{}),
	reflect.TypeOf(HelloAck{}),
	reflect.TypeOf(Heartbeat{}),
	reflect.TypeOf(RunTask{}),
	reflect.TypeOf(TaskDone{}),
	reflect.TypeOf(DropShuffle{}),
	reflect.TypeOf(SubmitJob{}),
	reflect.TypeOf(JobResult{}),
	reflect.TypeOf(ShutdownReq{}),
	reflect.TypeOf(ShutdownAck{}),
	reflect.TypeOf(ShuffleReq{}),
	reflect.TypeOf(ShuffleResp{}),
}

// messageTags maps a message's pointer type (what Send is given and
// Recv returns) to its tag.
var messageTags = func() map[reflect.Type]byte {
	tags := make(map[reflect.Type]byte, len(messageTypes))
	for i, t := range messageTypes {
		tags[reflect.PointerTo(t)] = byte(i)
	}
	return tags
}()

// Codec carries messages over one connection as a single gob stream
// cut into length-prefixed frames.
//
// The gob encoder and decoder live as long as the connection: a type's
// descriptor crosses the wire once, on the first message that uses it,
// and the decode engine for it is compiled once. Every frame holds
// exactly one message: its tag byte (messageTypes), whatever type
// descriptors it introduces, and its value. A frame with bytes left
// over after its message, or a message that runs past the end of its
// frame, is a protocol error. Send builds header and payload in one
// buffer and hands the connection one Write per frame; Recv decodes
// straight out of the frame's bytes, which are dropped as soon as the
// message is decoded.
//
// The frame layer stays under the stream for two reasons. It bounds
// allocation: the length prefix is checked against the limit before a
// byte of body is read, and the body buffer grows only as bytes arrive
// (spill.ReadFrame), so gob never sees more than one bounded frame of peer
// input. And it detects a desynchronised stream without trying to
// resynchronise: gob must consume each frame exactly.
//
// Because gob state is shared between frames, a failure cannot be
// skipped over. Any Send or Recv error — an unencodable value and an
// over-limit message included, since the encoder may already have
// advanced past type descriptors the peer never saw — poisons the
// Codec: the connection is closed and every later Send and Recv returns
// that first error. Callers treat it as the loss of the peer (driver:
// executorGone; executor: Run returns; peer fetch: the retry redials).
//
// A message may be followed by raw frames: a 4-byte big-endian length
// and that many bytes of a slab's memory, outside the gob stream
// (sendRaw, recvSlab). They obey the same limit and the same poison
// rule as message frames.
//
// Sends are serialized by an internal mutex — heartbeats and task
// results share the control connection from several goroutines; Recv
// must be called from a single reader goroutine.
type Codec struct {
	conn net.Conn
	max  int

	wmu sync.Mutex
	wb  bytes.Buffer // the frame being built: header, tag, gob bytes
	enc *gob.Encoder // writes into wb

	r   *bufio.Reader
	fr  bytes.Reader // the frame being decoded; an io.ByteReader, so gob reads it unbuffered
	dec *gob.Decoder // reads from fr

	emu sync.Mutex
	err error
}

// NewCodec wraps a connection; maxFrame <= 0 uses spill.MaxFrame.
func NewCodec(conn net.Conn, maxFrame int) *Codec {
	if maxFrame <= 0 {
		maxFrame = spill.MaxFrame
	}
	c := &Codec{conn: conn, max: maxFrame, r: bufio.NewReader(conn)}
	c.enc = gob.NewEncoder(&c.wb)
	c.dec = gob.NewDecoder(&c.fr)
	return c
}

// failed returns the error that poisoned the codec, nil while healthy.
func (c *Codec) failed() error {
	c.emu.Lock()
	defer c.emu.Unlock()
	return c.err
}

// poison records the codec's first error, closes the connection and
// returns that first error.
func (c *Codec) poison(err error) error {
	c.emu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	c.emu.Unlock()
	c.conn.Close()
	return err
}

// Send encodes m — a pointer to one of messageTypes — as the stream's
// next message, in one frame written with one Write. An error poisons
// the codec.
func (c *Codec) Send(m any) error { return c.sendRaw(m, nil) }

// sendRaw is Send followed by one raw frame per element of raw, all in
// one vectored write: the raw bytes go to the connection from where
// they lie, never copied into a frame buffer.
func (c *Codec) sendRaw(m any, raw [][]byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.failed(); err != nil {
		return err
	}
	tag, ok := messageTags[reflect.TypeOf(m)]
	if !ok {
		return c.poison(fmt.Errorf("dist: encode %T: not a message type", m))
	}
	for _, p := range raw {
		if len(p) > c.max {
			return c.poison(&spill.ErrFrameTooLarge{Length: len(p), Max: c.max})
		}
	}
	var head [spill.FrameHeaderLen + 1]byte
	head[spill.FrameHeaderLen] = tag
	c.wb.Reset()
	c.wb.Write(head[:])
	if err := c.enc.Encode(m); err != nil {
		return c.poison(fmt.Errorf("dist: encode %T: %w", m, err))
	}
	frame := c.wb.Bytes()
	n := len(frame) - spill.FrameHeaderLen
	if n > c.max {
		return c.poison(&spill.ErrFrameTooLarge{Length: n, Max: c.max})
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	var err error
	if len(raw) == 0 {
		_, err = c.conn.Write(frame)
	} else {
		heads := make([]byte, spill.FrameHeaderLen*len(raw))
		bufs := make(net.Buffers, 1, 1+2*len(raw))
		bufs[0] = frame
		for i, p := range raw {
			h := heads[i*spill.FrameHeaderLen : (i+1)*spill.FrameHeaderLen]
			binary.BigEndian.PutUint32(h, uint32(len(p)))
			bufs = append(bufs, h, p)
		}
		_, err = bufs.WriteTo(c.conn)
	}
	if c.wb.Cap() > spill.FrameGrowStep {
		// Do not keep a buffer grown for a large frame. gob's encoder
		// never shrinks its own buffer, so the connection already
		// retains one copy of its largest message; holding a second
		// here cost +6 % peak RSS on the shuffle-wide benchmark.
		c.wb = bytes.Buffer{}
	}
	if err != nil {
		return c.poison(fmt.Errorf("dist: send %T: %w", m, err))
	}
	return nil
}

// Recv reads the next frame and decodes the one message it holds,
// returning a pointer to one of messageTypes. An error — a clean
// io.EOF between frames included — poisons the codec.
func (c *Codec) Recv() (any, error) {
	if err := c.failed(); err != nil {
		return nil, err
	}
	payload, err := spill.ReadFrame(c.r, c.max)
	if err != nil {
		return nil, c.poison(err)
	}
	if len(payload) == 0 || int(payload[0]) >= len(messageTypes) {
		return nil, c.poison(fmt.Errorf("dist: decode frame: %d-byte frame opens with no known message tag", len(payload)))
	}
	m := reflect.New(messageTypes[payload[0]]).Interface()
	c.fr.Reset(payload[1:])
	err = c.dec.Decode(m)
	left := c.fr.Len()
	c.fr.Reset(nil) // the frame's bytes are garbage from here on
	if err == io.EOF {
		// A tag and nothing else. gob calls that a clean end of stream;
		// here a frame without its message is a truncated one.
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, c.poison(fmt.Errorf("dist: decode frame: %w", err))
	}
	if left > 0 {
		return nil, c.poison(fmt.Errorf("dist: decode frame: %d bytes after the message", left))
	}
	return m, nil
}

// Named rejections of a raw slab frame and the header that announced
// it, besides spill's unknown-name and element-size errors and the
// frame limit's *spill.ErrFrameTooLarge.
var (
	errSlabCount = errors.New("dist: slab of no elements")
	errRawFrame  = errors.New("dist: raw frame length differs from its slab")
)

// slabGrowth is how much a slab being received may grow per step once
// its first spill.FrameGrowStep bytes have arrived.
const slabGrowth = 4

// recvSlab reads the next frame, a raw one, as count elements of the
// registered slab type name with elem-byte elements, and returns the
// chunk. The claim is checked against the registry, the frame limit and
// the raw frame's own length before anything is allocated, and the
// slice grows as bytes arrive — as spill.ReadFrame grows a frame — so a
// forged count costs memory in proportion to the bytes that exist, not
// to the claim. Up to spill.FrameGrowStep bytes, the common case, the slice
// is allocated once and the bytes are read straight into it. Every
// error poisons the codec; a stream that ends inside the frame is
// io.ErrUnexpectedEOF.
func (c *Codec) recvSlab(name string, elem, count int) (any, error) {
	if err := c.failed(); err != nil {
		return nil, err
	}
	st, err := spill.LookupSlab(name, elem)
	if err != nil {
		return nil, c.poison(fmt.Errorf("dist: raw frame: %w", err))
	}
	if count <= 0 {
		return nil, c.poison(fmt.Errorf("%w: count %d", errSlabCount, count))
	}
	if count > c.max/elem {
		length := math.MaxInt
		if count <= math.MaxInt/elem {
			length = count * elem
		}
		return nil, c.poison(&spill.ErrFrameTooLarge{Length: length, Max: c.max})
	}
	var hdr [spill.FrameHeaderLen]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, c.poison(truncated(err))
	}
	n := count * elem
	if length := int(binary.BigEndian.Uint32(hdr[:])); length != n {
		return nil, c.poison(fmt.Errorf("%w: %d bytes for %d × %d", errRawFrame, length, count, elem))
	}
	ch, mem := st.Make(min(count, max(1, spill.FrameGrowStep/elem)))
	for have := 0; ; {
		if _, err := io.ReadFull(c.r, mem[have:]); err != nil {
			return nil, c.poison(truncated(err))
		}
		if have = len(mem); have == n {
			return ch, nil
		}
		next, nextMem := st.Make(min(count, slabGrowth*have/elem))
		copy(nextMem, mem)
		ch, mem = next, nextMem
	}
}

// truncated maps a stream that ended inside an announced frame to
// io.ErrUnexpectedEOF.
func truncated(err error) error {
	if err == io.EOF {
		return fmt.Errorf("dist: raw frame: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("dist: raw frame: %w", err)
}

// Close closes the underlying connection.
func (c *Codec) Close() error { return c.conn.Close() }

// RemoteAddr names the peer, for logs.
func (c *Codec) RemoteAddr() string { return c.conn.RemoteAddr().String() }
