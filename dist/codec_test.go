package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// memConn is an in-memory net.Conn for single-goroutine tests: writes
// append to a buffer that reads consume, so one Codec can play both
// ends of a connection (Send, then Recv its own frame) or replay a
// prepared byte stream.
type memConn struct {
	buf    bytes.Buffer
	writes int
	closed bool
}

func (c *memConn) Read(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.buf.Read(p)
}

func (c *memConn) Write(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	c.writes++
	return c.buf.Write(p)
}

func (c *memConn) Close() error                     { c.closed = true; return nil }
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// encodeStream sends msgs through one fresh Codec and returns the bytes
// it put on the wire: a valid multi-frame stream.
func encodeStream(t testing.TB, msgs ...any) []byte {
	t.Helper()
	conn := &memConn{}
	c := NewCodec(conn, 0)
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			t.Fatalf("send %T: %v", m, err)
		}
	}
	return append([]byte(nil), conn.buf.Bytes()...)
}

// splitFrames cuts a stream into its frames' payloads.
func splitFrames(t testing.TB, stream []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(stream) > 0 {
		n := int(binary.BigEndian.Uint32(stream))
		out = append(out, stream[frameHeaderLen:frameHeaderLen+n])
		stream = stream[frameHeaderLen+n:]
	}
	return out
}

// replay returns a Codec whose peer sent exactly the given payloads,
// one per frame.
func replay(limit int, payloads ...[]byte) (*Codec, *memConn) {
	conn := &memConn{}
	for _, p := range payloads {
		WriteFrame(&conn.buf, p)
	}
	return NewCodec(conn, limit), conn
}

func sampleRunTask(seq uint64) *RunTask {
	return &RunTask{
		Seq: seq, Kind: KindMap, Put: 3, Part: int(seq), Attempt: 1,
		Spec: JobSpec{Job: "keyed-sum", MapParts: 2000, ReduceParts: 4, Records: 500_000, Keys: 64},
	}
}

func sampleTaskDone(seq uint64) *TaskDone {
	return &TaskDone{Seq: seq, MissMapPart: -1, UnreachableExec: -1,
		Records: 64, Bytes: 1024, BucketBytes: []int64{256, 256, 256, 256}}
}

// TestCodecDescriptorsCrossOnce pins what the connection-scoped stream
// buys: the first RunTask on a connection carries gob's descriptors
// for RunTask, JobSpec and Loc, every later one only the values; and each frame reaches the connection as a single Write.
func TestCodecDescriptorsCrossOnce(t *testing.T) {
	conn := &memConn{}
	c := NewCodec(conn, 0)
	var sizes []int
	for seq := uint64(1); seq <= 3; seq++ {
		before := conn.buf.Len()
		if err := c.Send(sampleRunTask(seq)); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, conn.buf.Len()-before)
	}
	t.Logf("RunTask frame bytes: first %d, then %d", sizes[0], sizes[1])
	if sizes[1]*3 >= sizes[0] {
		t.Errorf("second RunTask frame is %d bytes, first %d: want under a third", sizes[1], sizes[0])
	}
	// A warm map RunTask is 49 bytes (first frame 334): 2000 of them
	// cross the wire in the dispatch-fine benchmark, so a field that
	// costs every task bytes shows up there as job_s.
	if sizes[1] > 49+8 {
		t.Errorf("warm map RunTask frame is %d bytes, want within 8 of 49", sizes[1])
	}
	if sizes[2] != sizes[1] {
		t.Errorf("steady-state RunTask frames differ: %d vs %d bytes", sizes[1], sizes[2])
	}
	if conn.writes != 3 {
		t.Errorf("3 frames took %d conn.Write calls, want one per frame", conn.writes)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", seq, err)
		}
		if rt, ok := m.(*RunTask); !ok || rt.Seq != seq || rt.Spec.MapParts != 2000 {
			t.Fatalf("recv %d: got %+v", seq, m)
		}
	}
}

// TestCodecFreshConnectionFreshState: type state belongs to the
// connection. A new Codec re-sends the descriptors (its first frame is
// as large as the previous connection's first), and a new receiver
// cannot decode a frame from the middle of another connection's stream.
func TestCodecFreshConnectionFreshState(t *testing.T) {
	first := splitFrames(t, encodeStream(t, sampleRunTask(1), sampleRunTask(2)))
	second := splitFrames(t, encodeStream(t, sampleRunTask(1)))
	if !bytes.Equal(first[0], second[0]) {
		t.Fatalf("a fresh connection's first frame differs: %d vs %d bytes", len(second[0]), len(first[0]))
	}
	c, _ := replay(0, second[0])
	if _, err := c.Recv(); err != nil {
		t.Fatalf("fresh receiver on a fresh stream: %v", err)
	}
	c, _ = replay(0, first[1])
	if _, err := c.Recv(); err == nil {
		t.Fatal("fresh receiver decoded a mid-stream frame whose descriptors it never saw")
	}
}

// TestCodecConcurrentSenders is production's sharing pattern at volume:
// heartbeats and task results from several goroutines on one Send side.
// Every message arrives whole, none is lost, and each sender's own
// order is kept.
func TestCodecConcurrentSenders(t *testing.T) {
	const senders, perSender = 3, 3334 // 10 002 messages
	a, b := net.Pipe()
	tx, rx := NewCodec(a, 0), NewCodec(b, 0)
	var wg sync.WaitGroup
	defer func() { // also on a failed Recv: unblock the senders, then wait them out
		tx.Close()
		rx.Close()
		wg.Wait()
	}()

	// resultFor is a payload the receiver can recompute, so a torn or
	// cross-wired frame cannot go unnoticed.
	resultFor := func(seq uint64) []byte {
		return bytes.Repeat([]byte{byte(seq), byte(seq >> 8)}, int(seq%97))
	}
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := uint64(1); i <= perSender; i++ {
				var m any
				switch s {
				case 0:
					m = &Heartbeat{ID: s, Seq: i}
				case 1:
					d := sampleTaskDone(i)
					d.Result = resultFor(i)
					m = d
				default:
					m = sampleRunTask(i)
				}
				if err := tx.Send(m); err != nil {
					t.Errorf("sender %d message %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}

	var last [senders]uint64
	for n := 0; n < senders*perSender; n++ {
		m, err := rx.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", n, err)
		}
		var s int
		var seq uint64
		switch msg := m.(type) {
		case *Heartbeat:
			s, seq = 0, msg.Seq
		case *TaskDone:
			s, seq = 1, msg.Seq
			if !bytes.Equal(msg.Result, resultFor(seq)) || len(msg.BucketBytes) != 4 {
				t.Fatalf("TaskDone %d arrived torn", seq)
			}
		case *RunTask:
			s, seq = 2, msg.Seq
			if msg.Part != int(seq) || msg.Spec.Job != "keyed-sum" {
				t.Fatalf("RunTask %d arrived torn: %+v", seq, msg)
			}
		default:
			t.Fatalf("recv %d: unexpected %T", n, m)
		}
		if seq != last[s]+1 {
			t.Fatalf("sender %d: message %d arrived after %d", s, seq, last[s])
		}
		last[s] = seq
	}
	wg.Wait()
	for s, seq := range last {
		if seq != perSender {
			t.Errorf("sender %d: %d of %d messages arrived", s, seq, perSender)
		}
	}
}

// expectPoisoned asserts the codec is dead: connection closed, and both
// directions keep returning the error that killed it.
func expectPoisoned(t *testing.T, c *Codec, conn *memConn, first error) {
	t.Helper()
	if !conn.closed {
		t.Error("connection left open after a codec error")
	}
	for i := 0; i < 2; i++ {
		if err := c.Send(&Heartbeat{}); err != first {
			t.Errorf("Send after poisoning: got %v, want the first error %v", err, first)
		}
		if _, err := c.Recv(); err != first {
			t.Errorf("Recv after poisoning: got %v, want the first error %v", err, first)
		}
	}
}

func TestCodecSendErrorPoisons(t *testing.T) {
	// Two ways to be unencodable: gob gives up part-way through a
	// message (a chunk type nobody registered), and the value is not a
	// message at all.
	for name, bad := range map[string]any{
		"unencodable":   &ShuffleResp{Chunks: []any{[]KV{{K: 1, V: 2}}, make(chan int)}},
		"not a message": make(chan int),
	} {
		t.Run(name, func(t *testing.T) {
			conn := &memConn{}
			c := NewCodec(conn, 0)
			if err := c.Send(&Heartbeat{Seq: 1}); err != nil {
				t.Fatal(err)
			}
			sent := conn.buf.Len()
			err := c.Send(bad)
			if err == nil {
				t.Fatalf("Send(%T) succeeded", bad)
			}
			if conn.buf.Len() != sent {
				t.Errorf("a failed Send put %d bytes on the wire", conn.buf.Len()-sent)
			}
			expectPoisoned(t, c, conn, err)
		})
	}
	t.Run("over-limit", func(t *testing.T) {
		conn := &memConn{}
		c := NewCodec(conn, 1024)
		err := c.Send(&TaskDone{Result: make([]byte, 4096)})
		var tooBig *ErrFrameTooLarge
		if !errors.As(err, &tooBig) || tooBig.Max != 1024 || tooBig.Length <= 4096 {
			t.Fatalf("got %v, want ErrFrameTooLarge over 4096/1024", err)
		}
		if conn.buf.Len() != 0 {
			t.Errorf("an over-limit Send put %d bytes on the wire", conn.buf.Len())
		}
		expectPoisoned(t, c, conn, err)
	})
}

// TestCodecRecvRejectsMisframedStream: a frame holds exactly one
// message. Anything else — bytes after the message, a second message,
// a message cut across two frames, a tag with no message, an empty
// frame, an unknown tag, a prefix over the limit — is a protocol error
// that poisons the codec.
func TestCodecRecvRejectsMisframedStream(t *testing.T) {
	frames := splitFrames(t, encodeStream(t, &Hello{ID: 1, ShuffleAddr: "127.0.0.1:9"}, &Heartbeat{ID: 1, Seq: 7}))
	hello, beat := frames[0], frames[1]
	cut := len(hello) / 2
	cases := []struct {
		name     string
		payloads [][]byte
		good     int // frames that decode before the bad one
		want     string
	}{
		{"trailing byte", [][]byte{append(append([]byte(nil), hello...), 0)}, 0, "after the message"},
		{"two messages in one frame", [][]byte{append(append([]byte(nil), hello...), beat...)}, 0, "after the message"},
		{"message split across frames", [][]byte{hello[:cut], hello[cut:]}, 0, "unexpected EOF"},
		{"tag only", [][]byte{hello, beat[:1]}, 1, "unexpected EOF"},
		{"empty frame", [][]byte{hello, nil}, 1, "no known message tag"},
		{"unknown tag", [][]byte{hello, append([]byte{byte(len(messageTypes))}, beat[1:]...)}, 1, "no known message tag"},
		{"over the limit", [][]byte{hello, make([]byte, 2048)}, 1, "exceeds limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, conn := replay(1024, tc.payloads...)
			for i := 0; i < tc.good; i++ {
				if _, err := c.Recv(); err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
			}
			_, err := c.Recv()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
			expectPoisoned(t, c, conn, err)
		})
	}
}

// TestCodecRoundTripAllocs is the machine-independent witness of the
// change: one RunTask -> TaskDone exchange on a warmed-up connection
// (descriptors sent, decode engines compiled) allocates little more
// than the decoded messages themselves. Rebuilding gob state per frame
// cost 565 allocations here.
func TestCodecRoundTripAllocs(t *testing.T) {
	c := NewCodec(&memConn{}, 0)
	run, done := sampleRunTask(1), sampleTaskDone(1)
	roundTrip := func() {
		for _, m := range []any{run, done} {
			if err := c.Send(m); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundTrip()
	allocs := testing.AllocsPerRun(200, roundTrip)
	t.Logf("warm RunTask/TaskDone round trip: %.0f allocations", allocs)
	if allocs > 40 {
		t.Fatalf("warm RunTask/TaskDone round trip: %.0f allocations, want <= 40", allocs)
	}
}
