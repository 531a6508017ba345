package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// frame builds one length-prefixed frame: the 4-byte big-endian payload
// length, then the payload — what Codec.Send puts on the wire.
func frame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
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
	// Results as raw frames: a TaskDone's and a JobResult's tails, a tail
	// whose frame differs from the length its message announced, and a
	// stream cut inside a tail.
	done := sampleTaskDone(3)
	done.Result = bytes.Repeat([]byte{7, 1}, 300)
	tails := encodeStream(f, sampleTaskDone(1), done, &JobResult{Result: []byte("the job's result")})
	f.Add(tails)
	forged := encodeStream(f, done)
	binary.BigEndian.PutUint32(forged[len(forged)-len(done.Result)-4:], uint32(len(done.Result)-1))
	f.Add(forged)
	f.Add(tails[:len(tails)-5])
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

// FuzzShuffleRecv pushes arbitrary bytes, as the answer to a request
// for parts%8 map partitions, through the client's receive path: a
// ShuffleResp frame and the raw slab frames it announces. Seeds are
// real server answers. recvChunks must never panic; allocation must
// stay bounded by the input, not by any count it claims (the codec's
// limit is the real 64 MiB, so a slab allocated on its word would
// show); an error that is not the server's own miss or failure must
// poison the codec, stick and be returned again; and for every answer
// the client accepts, the chunks must be what a gob round trip of them
// gives, and cutting the stream anywhere inside what was read must be
// io.ErrUnexpectedEOF.
func FuzzShuffleRecv(f *testing.F) {
	answer := func(chunks []any) []byte {
		store, id := storeWith(f, chunks)
		resp, raw := NewShuffleServer(store).answer(&ShuffleReq{Shuffle: id, MapParts: allParts(len(chunks))})
		return respStream(f, resp, raw...)
	}
	f.Add(uint8(5), answer(sampleChunks()))
	f.Add(uint8(2), answer([]any{[]KV{{K: 7, V: 8}}, make([]PRRec, 3)}))
	f.Add(uint8(1), respStream(f, &ShuffleResp{Miss: true, MissMapPart: 0}))
	f.Add(uint8(1), respStream(f, &ShuffleResp{Err: "store failed", MissMapPart: -1}))
	f.Add(uint8(0), []byte{})

	recv := func(data []byte, n int) (*Codec, *memConn, []any, error) {
		conn := &memConn{}
		conn.buf.Write(data)
		c := NewCodec(conn, 0)
		chunks, err := recvChunks(c, 1, n)
		return c, conn, chunks, err
	}
	f.Fuzz(func(t *testing.T, parts uint8, data []byte) {
		n := int(parts % 8)
		var c *Codec
		var conn *memConn
		var chunks []any
		var err error
		allocated := allocBytes(func() { c, conn, chunks, err = recv(data, n) })
		// As FuzzCodecRecv: gob may trust a length inside a frame for one
		// 10 MiB read chunk, and decodes what arrived into values a few
		// dozen times larger. A slab grows at most fourfold past what
		// arrived.
		if bound := uint64(16<<20 + 64*len(data)); allocated > bound {
			t.Fatalf("%d-byte stream allocated %d bytes, bound %d", len(data), allocated, bound)
		}
		if first := c.failed(); first != nil {
			if err != first || !conn.closed {
				t.Fatalf("poisoned by %v but returned %v (connection closed: %v)", first, err, conn.closed)
			}
			if _, again := c.Recv(); again != first {
				t.Fatalf("Recv after the first error: got %v, want %v", again, first)
			}
			if _, again := c.recvSlab("", 1, 1); again != first {
				t.Fatalf("recvSlab after the first error: got %v, want %v", again, first)
			}
			return
		}
		// Accepted: the chunks, a miss or the server's error, with the
		// connection in step.
		if err == nil && !sameChunks(t, chunks, gobRoundTrip(t, chunks)) {
			t.Fatalf("received %#v, a gob round trip gives %#v", chunks, gobRoundTrip(t, chunks))
		}
		read := len(data) - conn.buf.Len() - c.r.Buffered()
		for _, cut := range []int{1, read / 2, read - 1} {
			if cut <= 0 || cut >= read {
				continue
			}
			if _, _, _, err := recv(data[:cut], n); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("stream cut at %d of %d: got %v, want io.ErrUnexpectedEOF", cut, read, err)
			}
		}
	})
}

// sameChunks compares chunk lists by type, nil-ness and gob encoding,
// which reads each field's value: unlike reflect.DeepEqual it holds a
// NaN equal to itself, and unlike the slabs' memory it ignores padding.
func sameChunks(tb testing.TB, a, b []any) bool {
	tb.Helper()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if reflect.TypeOf(a[i]) != reflect.TypeOf(b[i]) {
			return false
		}
		if va, vb := reflect.ValueOf(a[i]), reflect.ValueOf(b[i]); va.Kind() == reflect.Slice && va.IsNil() != vb.IsNil() {
			return false
		}
	}
	encode := func(chunks []any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&ShuffleResp{Chunks: chunks}); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	return bytes.Equal(encode(a), encode(b))
}
