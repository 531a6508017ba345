package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"hpcmr/internal/spill"
)

// frame builds one length-prefixed frame: the 4-byte big-endian payload
// length, then the payload — what Codec.Send puts on the wire.
func frame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte("abc"), 1000),
		make([]byte, frameGrowStep),     // exactly one grow step
		make([]byte, frameGrowStep+1),   // spills into a second step
		make([]byte, 3*frameGrowStep-7), // several steps, ragged tail
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		buf.Write(frame(p))
	}
	for i, p := range payloads {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(p) == 0 {
			if got != nil {
				t.Fatalf("frame %d: empty payload came back as %d bytes", i, len(got))
			}
			continue
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	raw := frame(bytes.Repeat([]byte("q"), 500))
	// Every proper prefix except the empty one must error with
	// ErrUnexpectedEOF (the empty prefix is a clean end-of-stream).
	for cut := 1; cut < len(raw); cut++ {
		_, err := ReadFrame(bytes.NewReader(raw[:cut]), 0)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut=%d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	_, err := ReadFrame(bytes.NewReader(hdr[:]), 1<<20)
	var tooBig *spill.ErrFrameTooLarge
	if !errors.As(err, &tooBig) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if tooBig.Length != 1<<30 || tooBig.Max != 1<<20 {
		t.Fatalf("ErrFrameTooLarge fields: %+v", tooBig)
	}
}

// TestFrameCorruptPrefixNoOverAllocation pins the incremental-growth
// guarantee: a prefix claiming a huge (but under-limit) payload against
// a short stream must fail without allocating anywhere near the claim.
func TestFrameCorruptPrefixNoOverAllocation(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 48<<20) // claims 48 MiB, under the 64 MiB default
	buf.Write(hdr[:])
	buf.WriteString("only these bytes exist")

	allocated := allocBytes(func() {
		if _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 0); err != io.ErrUnexpectedEOF {
			t.Errorf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})
	if allocated > 1<<20 {
		t.Fatalf("corrupt 48 MiB prefix allocated %d bytes; growth cap is %d per step", allocated, frameGrowStep)
	}
}

// allocBytes measures heap bytes allocated while f runs (TotalAlloc is
// cumulative, so no collection is needed around f).
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadFrame feeds arbitrary byte streams through ReadFrame: it must
// never panic, never over-allocate past the stream, and any payload it
// does return must round-trip back through a fresh frame.
func FuzzReadFrame(f *testing.F) {
	f.Add(frame([]byte("seed payload")))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 5, 'a', 'b'})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			payload, err := ReadFrame(r, 1<<20)
			if err != nil {
				var tooBig *spill.ErrFrameTooLarge
				if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.As(err, &tooBig) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if len(payload) > len(data) {
				t.Fatalf("payload %d bytes from a %d-byte stream", len(payload), len(data))
			}
			got, rerr := ReadFrame(bytes.NewReader(frame(payload)), 1<<20)
			if rerr != nil {
				t.Fatalf("round-trip read: %v", rerr)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("round-trip payload mismatch")
			}
		}
	})
}

// FuzzCodecRecv pushes arbitrary bytes through a real Codec as a
// multi-frame stream, so mutated frames meet a decoder that already
// holds type state from the frames before them — the position hostile
// peer input is in on a live connection. Seeds are valid streams (types
// defined once, then reused). Recv must never panic; the first error
// must close the connection and be returned by every later Recv; and
// allocation must stay bounded by the input, not by what the input
// claims.
func FuzzCodecRecv(f *testing.F) {
	const limit = 1 << 20
	kvs := make([]KV, 300)
	for i := range kvs {
		kvs[i] = KV{K: int64(i), V: int64(i) * 3}
	}
	f.Add(encodeStream(f, &Hello{ID: 1, ShuffleAddr: "127.0.0.1:4000"},
		sampleRunTask(1), sampleTaskDone(1), sampleTaskDone(2)))
	f.Add(encodeStream(f, &ShuffleReq{Shuffle: 1, ReducePart: 2, MapParts: []int{0, 1}},
		&ShuffleResp{MissMapPart: -1, Chunks: []any{kvs, nil}}))
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &memConn{}
		conn.buf.Write(data)
		c := NewCodec(conn, limit)
		var first error
		allocated := allocBytes(func() {
			for first == nil { // ends: the stream is finite and even a clean EOF is an error
				_, first = c.Recv()
			}
		})

		// Two terms. Per frame, ReadFrame allocates what arrived and gob
		// decodes it into values at most a few dozen times larger (a
		// zero-valued Loc is 1 byte on the wire, 32 in memory). Once per
		// stream, gob may trust a message-length prefix inside a frame
		// for up to its 10 MiB read chunk before finding the frame short.
		if bound := uint64(16*limit + 64*len(data)); allocated > bound {
			t.Fatalf("%d-byte stream allocated %d bytes, bound %d", len(data), allocated, bound)
		}
		if !conn.closed {
			t.Fatal("connection left open after a Recv error")
		}
		for i := 0; i < 3; i++ {
			if _, err := c.Recv(); err != first {
				t.Fatalf("Recv %d after the first error: got %v, want %v", i, err, first)
			}
		}
	})
}

// FuzzFrameRoundTrip drives the forward direction: any payload framed
// with its length prefix must come back byte-identical through ReadFrame —
// including back-to-back frames on one stream — and must be rejected
// with ErrFrameTooLarge (never a panic or short read) when the
// reader's limit is below the payload size.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(nil), []byte("second"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte("payload"), []byte(nil))
	f.Add(bytes.Repeat([]byte{0xa5}, frameGrowStep+3), []byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		stream := append(frame(a), frame(b)...)
		buf := bytes.NewBuffer(append([]byte(nil), stream...))

		for i, want := range [][]byte{a, b} {
			got, err := ReadFrame(buf, 0)
			if err != nil {
				t.Fatalf("read frame %d: %v", i, err)
			}
			if len(want) == 0 {
				if got != nil {
					t.Fatalf("frame %d: empty payload came back as %d bytes", i, len(got))
				}
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d: round-trip mismatch (%d vs %d bytes)", i, len(got), len(want))
			}
		}
		if _, err := ReadFrame(buf, 0); err != io.EOF {
			t.Fatalf("stream end: got %v, want io.EOF", err)
		}

		// An undersized reader limit must reject frame a cleanly.
		if len(a) > 1 {
			_, err := ReadFrame(bytes.NewReader(stream), len(a)-1)
			var tooBig *spill.ErrFrameTooLarge
			if !errors.As(err, &tooBig) {
				t.Fatalf("limit %d on %d-byte payload: got %v, want ErrFrameTooLarge", len(a)-1, len(a), err)
			}
		}
	})
}
