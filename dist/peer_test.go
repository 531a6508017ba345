package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcmr/engine"
	"hpcmr/internal/spill"
)

// These tests pin the peer fetch path: chunks of a wire slab type cross
// as raw frames and come back as a gob round trip would give them; a
// response the client rejects is a named error that poisons the
// connection; an executor keeps one connection per peer and concurrent
// gather, gives none back that is poisoned, and leaks none; a killed
// executor stops answering on connections its peers pooled.

// sampleChunks is one of each chunk shape a shuffle carries: slabs of
// both wire slab types, a string-keyed (gob) chunk, an empty bucket and
// an empty slab-typed chunk.
func sampleChunks() []any {
	pr := make([]PRRec, 40)
	for i := range pr {
		pr[i] = PRRec{Kind: prFlow, Node: int64(i), Val: float64(i) / 7, Load: [8]float64{float64(i)}}
	}
	return []any{[]KV{{K: 1, V: 2}, {K: 3, V: -4}}, nil, pr, []SKV{{K: "a", V: 1}}, []KV{}}
}

// storeWith registers a shuffle of one reduce partition whose map
// partition m holds chunks[m].
func storeWith(tb testing.TB, chunks []any) (*engine.ShuffleStore, int) {
	tb.Helper()
	store := engine.NewShuffleStore()
	id := store.Register(len(chunks), 1)
	for m, ch := range chunks {
		if err := store.PutChunksFrom(id, m, 1, []any{ch}); err != nil {
			tb.Fatal(err)
		}
	}
	return store, id
}

// serve starts a shuffle server over store on loopback, closed when
// the test ends.
func serve(tb testing.TB, store *engine.ShuffleStore) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewShuffleServer(store)
	go srv.Serve(ln)
	tb.Cleanup(srv.Close)
	return ln.Addr().String()
}

// respStream is what a shuffle server puts on the wire answering with
// resp followed by the raw frames raw.
func respStream(tb testing.TB, resp *ShuffleResp, raw ...[]byte) []byte {
	tb.Helper()
	conn := &memConn{}
	if err := NewCodec(conn, 0).sendRaw(resp, raw); err != nil {
		tb.Fatal(err)
	}
	return conn.buf.Bytes()
}

// gobRoundTrip is what the same chunks become when they ride in
// ShuffleResp.Chunks as gob.
func gobRoundTrip(tb testing.TB, chunks []any) []any {
	tb.Helper()
	c := NewCodec(&memConn{}, 0)
	if err := c.Send(&ShuffleResp{MissMapPart: -1, Chunks: chunks}); err != nil {
		tb.Fatal(err)
	}
	m, err := c.Recv()
	if err != nil {
		tb.Fatal(err)
	}
	return m.(*ShuffleResp).Chunks
}

// TestSlabWireRoundTrip: the server sends exactly the non-empty chunks
// of a wire slab type as raw frames, and the client reads back what a
// gob round trip of the same chunks gives — a slab past spill.FrameGrowStep
// across its growth steps too.
func TestSlabWireRoundTrip(t *testing.T) {
	large := make([]KV, 3*spill.FrameGrowStep/16+5)
	for i := range large {
		large[i] = KV{K: int64(i), V: -int64(i)}
	}
	for _, tc := range []struct {
		chunks  []any
		slabbed []int
	}{
		{sampleChunks(), []int{0, 2}},
		{[]any{large}, []int{0}},
	} {
		store, id := storeWith(t, tc.chunks)
		resp, raw := NewShuffleServer(store).answer(&ShuffleReq{Shuffle: id, MapParts: allParts(len(tc.chunks))})
		var slabbed []int
		for _, s := range resp.Slabs {
			slabbed = append(slabbed, s.Chunk)
		}
		if !reflect.DeepEqual(slabbed, tc.slabbed) || len(raw) != len(tc.slabbed) {
			t.Fatalf("slabs for chunks %v (%d raw frames), want %v", slabbed, len(raw), tc.slabbed)
		}
		conn := &memConn{}
		conn.buf.Write(respStream(t, resp, raw...))
		got, err := recvChunks(NewCodec(conn, 0), id, len(tc.chunks))
		if err != nil {
			t.Fatal(err)
		}
		if want := gobRoundTrip(t, tc.chunks); !reflect.DeepEqual(got, want) {
			t.Fatalf("slab wire gave %#v, gob %#v", got, want)
		}
		if conn.buf.Len() != 0 {
			t.Errorf("%d bytes left unread after the response", conn.buf.Len())
		}
	}
}

// TestShuffleRecvRejects: every way a response can lie about its slabs
// is a named error, found before anything is allocated on the lie's
// word, and poisons the connection so it is never used again.
func TestShuffleRecvRejects(t *testing.T) {
	const limit = 1 << 20
	kvs := []KV{{K: 1, V: 2}, {K: 3, V: 4}}
	st, mem := spill.SlabOf(kvs)
	head := SlabHead{Chunk: 0, Name: st.Name, Elem: st.Elem, Count: len(kvs)}
	with := func(f func(*SlabHead)) SlabHead { h := head; f(&h); return h }
	resp := func(slabs ...SlabHead) *ShuffleResp {
		return &ShuffleResp{MissMapPart: -1, Chunks: make([]any, 2), Slabs: slabs}
	}
	valid := respStream(t, resp(head), mem)
	// A response announcing 64 Ki records whose raw frame says so too,
	// with 32 bytes of it on the wire.
	forged := binary.BigEndian.AppendUint32(respStream(t, resp(with(func(h *SlabHead) { h.Count = limit / 16 }))), limit)
	forged = append(forged, mem...)

	var tooLarge *spill.ErrFrameTooLarge
	for _, tc := range []struct {
		name   string
		stream []byte
		want   func(error) bool
	}{
		{"unknown slab name", respStream(t, resp(with(func(h *SlabHead) { h.Name = "no/such|[]x.T" })), mem),
			is(spill.ErrUnknownSlab)},
		{"element size differs", respStream(t, resp(with(func(h *SlabHead) { h.Elem, h.Count = 8, 4 })), mem),
			is(spill.ErrSlabElem)},
		{"count x size over the limit", respStream(t, resp(with(func(h *SlabHead) { h.Count = limit/16 + 1 }))),
			func(err error) bool { return errors.As(err, &tooLarge) }},
		{"count x size overflows", respStream(t, resp(with(func(h *SlabHead) { h.Count = 1 << 62 }))),
			func(err error) bool { return errors.As(err, &tooLarge) }},
		{"no elements", respStream(t, resp(with(func(h *SlabHead) { h.Count = 0 }))), is(errSlabCount)},
		{"negative count", respStream(t, resp(with(func(h *SlabHead) { h.Count = -1 }))), is(errSlabCount)},
		{"short raw frame", respStream(t, resp(with(func(h *SlabHead) { h.Count = 3 })), mem), is(errRawFrame)},
		{"over-long raw frame", respStream(t, resp(with(func(h *SlabHead) { h.Count = 1 })), mem), is(errRawFrame)},
		{"chunk count mismatch", respStream(t, &ShuffleResp{MissMapPart: -1, Chunks: make([]any, 3)}), is(errChunkCount)},
		{"slab past the chunks", respStream(t, resp(with(func(h *SlabHead) { h.Chunk = 2 })), mem), is(errSlabIndex)},
		{"slabs out of order", respStream(t, resp(with(func(h *SlabHead) { h.Chunk = 1 }), head), mem, mem), is(errSlabIndex)},
		{"two slabs for one chunk", respStream(t, resp(head, head), mem, mem), is(errSlabIndex)},
		{"slab over a gob chunk", respStream(t, &ShuffleResp{MissMapPart: -1, Chunks: []any{[]SKV{{K: "k"}}, nil},
			Slabs: []SlabHead{head}}, mem), is(errSlabIndex)},
		{"slabs after a miss", respStream(t, &ShuffleResp{Miss: true, MissMapPart: 1, Slabs: []SlabHead{head}}, mem),
			is(errSlabIndex)},
		{"stream ends inside the raw frame", valid[:len(valid)-1], is(io.ErrUnexpectedEOF)},
		{"stream ends before the raw frame", valid[:len(valid)-len(mem)-spill.FrameHeaderLen], is(io.ErrUnexpectedEOF)},
		{"forged count, short stream", forged, is(io.ErrUnexpectedEOF)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := &memConn{}
			conn.buf.Write(tc.stream)
			c := NewCodec(conn, limit)
			var err error
			allocated := allocBytes(func() { _, err = recvChunks(c, 1, 2) })
			if err == nil || !tc.want(err) {
				t.Fatalf("got %v", err)
			}
			if allocated > 4*spill.FrameGrowStep {
				t.Errorf("rejection allocated %d bytes", allocated)
			}
			expectPoisoned(t, c, conn, err)
		})
	}
	conn := &memConn{}
	conn.buf.Write(valid)
	if got, err := recvChunks(NewCodec(conn, limit), 1, 2); err != nil || !reflect.DeepEqual(got, []any{kvs, nil}) {
		t.Fatalf("the honest response: %v, %v", got, err)
	}
}

func is(target error) func(error) bool {
	return func(err error) bool { return errors.Is(err, target) }
}

// TestHelloLayoutMismatchRejected: an executor whose slab layout
// differs is refused at registration, without taking its ID or being
// declared lost — a matching executor registers under the same ID next.
func TestHelloLayoutMismatchRejected(t *testing.T) {
	d, err := NewDriver(DriverConfig{Executors: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	conn, err := net.Dial("tcp", d.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCodec(conn, 0)
	defer c.Close()
	if err := c.Send(&Hello{ID: 0, ShuffleAddr: "127.0.0.1:1", WireLayout: wireLayout ^ 1}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := m.(*HelloAck); !ok || ack.OK || !strings.Contains(ack.Reason, "layout") {
		t.Fatalf("got %#v, want a HelloAck refusing the layout", m)
	}
	e := NewExecutor(ExecutorConfig{ID: 0, DriverAddr: d.ControlAddr()})
	exited := make(chan error, 1)
	go func() { exited <- e.Run() }()
	defer func() { e.Kill(); <-exited }()
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if alive := d.Runtime().AliveExecutors(); alive != 1 {
		t.Fatalf("alive executors %d, want 1", alive)
	}
}

// TestPeerPoolWarmFetchAllocs pins what a fetch over a warm pooled
// connection allocates, both ends together: the request, the response
// and the slab it reads into — not a connection's gob set-up.
func TestPeerPoolWarmFetchAllocs(t *testing.T) {
	store, id := storeWith(t, []any{make([]PRRec, 500)})
	addr := serve(t, store)
	var p peerPool
	defer p.close()
	fetch := func() {
		if _, err := p.fetch(addr, id, 0, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	fetch()
	warm := testing.AllocsPerRun(100, fetch)
	cold := testing.AllocsPerRun(20, func() {
		if _, err := FetchPeerChunks(addr, id, 0, []int{0}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("fetch of 500 PRRec: %.0f allocations warm, %.0f dialling per call", warm, cold)
	if warm > 45 {
		t.Fatalf("warm fetch: %.0f allocations, want <= 45", warm)
	}
}

// TestPeerPoolDialsOncePerPeer: through a 12-step pagerank job, with
// one core per executor, each executor dials each peer once — not once
// per task that fetches from it.
func TestPeerPoolDialsOncePerPeer(t *testing.T) {
	const executors = 3
	lc, err := StartLocal(LocalConfig{Executors: executors, CoresPerExecutor: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	var remoteFetches atomic.Int64
	lc.Driver.Runtime().AddListener(engine.FuncListener{
		Fetch: func(e engine.FetchEvent) {
			if e.Remote {
				remoteFetches.Add(1)
			}
		},
	})
	spec := JobSpec{Job: "pagerank", ReduceParts: 6, Records: 3000, Steps: 12}
	out, err := lc.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkPagerank(t, out, spec)
	var dials int64
	for _, e := range lc.execs {
		dials += e.server.accepted.Load()
	}
	t.Logf("%d shuffle connections for %d tasks that fetched remotely", dials, remoteFetches.Load())
	if pairs := int64(executors * (executors - 1)); dials > pairs || remoteFetches.Load() <= pairs {
		t.Fatalf("%d shuffle connections for %d remote-fetching tasks, want at most %d", dials, remoteFetches.Load(), pairs)
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(entries)
}

// TestPeerPoolNoLeakAcrossShutdown: a cluster whose executors pooled
// connections to each other leaves no goroutine and no descriptor
// behind once it is closed.
func TestPeerPoolNoLeakAcrossShutdown(t *testing.T) {
	fds, goroutines := openFDs(t), runtime.NumGoroutine()
	lc, err := StartLocal(LocalConfig{Executors: 3, CoresPerExecutor: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Job: "pagerank", ReduceParts: 6, Records: 3000, Steps: 4}
	out, err := lc.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkPagerank(t, out, spec)
	lc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for openFDs(t) > fds || runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("after Close: %d fds (was %d), %d goroutines (was %d)\n%s",
				openFDs(t), fds, runtime.NumGoroutine(), goroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gateListener holds every accepted connection's reads until two
// connections have been accepted (or a timeout passes), so two fetches
// in flight at once must have dialled two.
type gateListener struct {
	net.Listener
	accepted atomic.Int32
	open     chan struct{}
	once     sync.Once
}

func (l *gateListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.accepted.Add(1) == 2 {
		l.once.Do(func() { close(l.open) })
	}
	return gatedConn{conn, l.open}, nil
}

type gatedConn struct {
	net.Conn
	open <-chan struct{}
}

func (c gatedConn) Read(p []byte) (int, error) {
	<-c.open
	return c.Conn.Read(p)
}

// TestPeerPoolConcurrentGathers: two gathers to one peer at once take
// two connections, and both get byte-identical chunks; a third, after
// them, reuses one.
func TestPeerPoolConcurrentGathers(t *testing.T) {
	chunks := sampleChunks()
	store, id := storeWith(t, chunks)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateListener{Listener: ln, open: make(chan struct{})}
	timer := time.AfterFunc(5*time.Second, func() { gate.once.Do(func() { close(gate.open) }) })
	defer timer.Stop()
	srv := NewShuffleServer(store)
	go srv.Serve(gate)
	defer srv.Close()

	e := NewExecutor(ExecutorConfig{ID: 0})
	defer e.peers.close()
	locs := make([]Loc, len(chunks))
	for m := range locs {
		locs[m] = Loc{MapPart: m, Exec: 1, Addr: ln.Addr().String()}
	}
	gather := func() ([]any, error) {
		return e.gather(id, locs, 0, &TaskDone{MissMapPart: -1, UnreachableExec: -1})
	}
	var got [2][]any
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = gather()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("gather %d: %v", i, err)
		}
	}
	if n := gate.accepted.Load(); n != 2 {
		t.Fatalf("two concurrent gathers used %d connections, want 2", n)
	}
	want := gobRoundTrip(t, chunks)
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("gather %d: %#v, want %#v", i, got[i], want)
		}
	}
	for m := range chunks {
		a, memA := spill.SlabOf(got[0][m])
		_, memB := spill.SlabOf(got[1][m])
		if a != nil && !bytes.Equal(memA, memB) {
			t.Fatalf("chunk %d: the two gathers' bytes differ", m)
		}
	}
	if _, err := gather(); err != nil {
		t.Fatal(err)
	}
	if n := gate.accepted.Load(); n != 2 {
		t.Fatalf("a third gather after the two dialled again: %d connections", n)
	}
}

// TestPeerPoolKilledPeerUnreachable: a killed executor's shuffle server
// drops the connections peers pooled, as a SIGKILL would. The next
// fetch on one fails, the gather redials within the retry budget, and
// the peer is reported unreachable.
func TestPeerPoolKilledPeerUnreachable(t *testing.T) {
	var mu sync.Mutex
	var retries []string
	logf := func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "executor 0 fetch retry") {
			mu.Lock()
			retries = append(retries, line)
			mu.Unlock()
		}
		t.Logf(format, args...)
	}
	lc, err := StartLocal(LocalConfig{Executors: 2, CoresPerExecutor: 1, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	spec := JobSpec{Job: "pagerank", ReduceParts: 4, Records: 2048, Steps: 3}
	if _, err := lc.Run(spec); err != nil {
		t.Fatal(err)
	}
	e0, addr1 := lc.execs[0], lc.execs[1].shuffleL.Addr().String()
	e0.peers.mu.Lock()
	pooled := len(e0.peers.idle[addr1])
	e0.peers.mu.Unlock()
	if pooled != 1 {
		t.Fatalf("executor 0 holds %d connections to executor 1, want 1", pooled)
	}

	lc.KillExecutor(1)
	done := &TaskDone{MissMapPart: -1, UnreachableExec: -1}
	_, err = e0.gather(1, []Loc{{MapPart: 0, Exec: 1, Addr: addr1}}, 0, done)
	if err == nil || done.UnreachableExec != 1 {
		t.Fatalf("gather from a killed peer: err %v, unreachable %d; want executor 1 unreachable", err, done.UnreachableExec)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(retries) != engine.FetchAttempts-1 || strings.Contains(retries[0], "dial") ||
		!strings.Contains(retries[1], "dial") || !strings.Contains(err.Error(), "dial") {
		t.Fatalf("want the pooled connection to fail, then dials to:\n%s\nfinal: %v", strings.Join(retries, "\n"), err)
	}
}

// TestPeerPoolNeverPoolsRejected: a connection whose response the
// client refused is closed, not pooled; one that answered a miss is
// in step and goes back.
func TestPeerPoolNeverPoolsRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	answers := []*ShuffleResp{
		{MissMapPart: -1, Chunks: make([]any, 1), Slabs: []SlabHead{{Chunk: 0, Name: "no/such|[]x.T", Elem: 16, Count: 1}}},
		{Miss: true, MissMapPart: 0},
	}
	go func() {
		for _, resp := range answers {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c := NewCodec(conn, 0)
			defer c.Close()
			if _, err := c.Recv(); err != nil {
				return
			}
			var raw [][]byte
			if len(resp.Slabs) > 0 {
				raw = [][]byte{make([]byte, 16)}
			}
			c.sendRaw(resp, raw)
		}
	}()
	var p peerPool
	defer p.close()
	idle := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.idle[ln.Addr().String()])
	}
	if _, err := p.fetch(ln.Addr().String(), 1, 0, []int{0}); !errors.Is(err, spill.ErrUnknownSlab) || idle() != 0 {
		t.Fatalf("forged slab: err %v, %d pooled; want ErrUnknownSlab and none", err, idle())
	}
	var miss *engine.MapOutputMissingError
	if _, err := p.fetch(ln.Addr().String(), 1, 0, []int{0}); !errors.As(err, &miss) || idle() != 1 {
		t.Fatalf("miss: err %v, %d pooled; want a miss and the connection back", err, idle())
	}
}

// BenchmarkPeerFetch is one peer fetch of one chunk over loopback, by
// connection (dialled per call, as FetchPeerChunks does, or warm from
// an executor's pool) and by chunk: 500 PRRec, an iter-local step
// task's remote share, and one shuffle-wide map partition's reduce
// bucket, 7 812 KV.
func BenchmarkPeerFetch(b *testing.B) {
	wide, err := keyedSumMap(JobSpec{Job: "keyed-sum", Records: 250_000, Keys: 250_000, MapParts: 8, ReduceParts: 4}, 0)
	if err != nil {
		b.Fatal(err)
	}
	pr := make([]PRRec, 500)
	for i := range pr {
		pr[i] = PRRec{Kind: prFlow, Node: int64(i), Val: float64(i)}
	}
	for _, shape := range []struct {
		name  string
		chunk any
	}{{"prrec-500", pr}, {"kv-bucket", wide.Buckets[0]}} {
		store, id := storeWith(b, []any{shape.chunk})
		addr := serve(b, store)
		_, size := engine.ChunkVolume(shape.chunk)
		var p peerPool
		b.Cleanup(p.close)
		for _, mode := range []struct {
			name  string
			fetch func() ([]any, error)
		}{
			{"dial", func() ([]any, error) { return FetchPeerChunks(addr, id, 0, []int{0}) }},
			{"warm", func() ([]any, error) { return p.fetch(addr, id, 0, []int{0}) }},
		} {
			b.Run(mode.name+"/"+shape.name, func(b *testing.B) {
				b.SetBytes(size)
				b.ReportAllocs()
				for b.Loop() {
					if _, err := mode.fetch(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
