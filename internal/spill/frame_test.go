package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// frame builds one length-prefixed frame: the 4-byte big-endian payload
// length, then the payload — what ReadFrame reads.
func frame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte("abc"), 1000),
		make([]byte, FrameGrowStep),     // exactly one grow step
		make([]byte, FrameGrowStep+1),   // spills into a second step
		make([]byte, 3*FrameGrowStep-7), // several steps, ragged tail
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
	var tooBig *ErrFrameTooLarge
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
		t.Fatalf("corrupt 48 MiB prefix allocated %d bytes; growth cap is %d per step", allocated, FrameGrowStep)
	}
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
				var tooBig *ErrFrameTooLarge
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

// FuzzFrameRoundTrip drives the forward direction: any payload framed
// with its length prefix must come back byte-identical through ReadFrame —
// including back-to-back frames on one stream — and must be rejected
// with ErrFrameTooLarge (never a panic or short read) when the
// reader's limit is below the payload size.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(nil), []byte("second"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte("payload"), []byte(nil))
	f.Add(bytes.Repeat([]byte{0xa5}, FrameGrowStep+3), []byte{0, 0, 0, 0})
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
			var tooBig *ErrFrameTooLarge
			if !errors.As(err, &tooBig) {
				t.Fatalf("limit %d on %d-byte payload: got %v, want ErrFrameTooLarge", len(a)-1, len(a), err)
			}
		}
	})
}
