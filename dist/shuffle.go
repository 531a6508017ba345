package dist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hpcmr/engine"
	"hpcmr/internal/spill"
)

// ShuffleServer serves one executor's map output over TCP: peers send
// ShuffleReq frames and get back the stored chunks, exactly as the
// local store holds them (typed slices boxed once). A chunk of a wire
// slab type is written straight from its memory as a raw frame after
// the response; any other is gob-encoded inside it. The zero-copy path
// is reserved for local-owner fetches, which never reach the server.
type ShuffleServer struct {
	store *engine.ShuffleStore

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	accepted atomic.Int64 // connections accepted, for tests
}

// NewShuffleServer builds a server over the executor's local store.
func NewShuffleServer(store *engine.ShuffleStore) *ShuffleServer {
	return &ShuffleServer{store: store, conns: map[net.Conn]struct{}{}}
}

// Serve accepts fetch connections until the listener closes. Each
// connection may carry many requests; a malformed frame drops only its
// connection.
func (s *ShuffleServer) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	closed := s.closed
	s.mu.Unlock()
	if closed {
		ln.Close()
		return
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.accepted.Add(1)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops the server as a killed process would: no new connections,
// and every connection already accepted — peers pool them — is closed,
// so no peer is answered again.
func (s *ShuffleServer) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
}

func (s *ShuffleServer) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	c := NewCodec(conn, 0)
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		req, ok := m.(*ShuffleReq)
		if !ok {
			return
		}
		resp, raw := s.answer(req)
		if err := c.sendRaw(resp, raw); err != nil {
			return
		}
	}
}

// answer resolves one request against the local store: the response,
// and the memory of each chunk its Slabs list, in order.
func (s *ShuffleServer) answer(req *ShuffleReq) (*ShuffleResp, [][]byte) {
	resp := &ShuffleResp{MissMapPart: -1, Chunks: make([]any, len(req.MapParts))}
	var raw [][]byte
	for i, m := range req.MapParts {
		ch, err := s.store.FetchChunk(req.Shuffle, m, req.ReducePart)
		if err != nil {
			var miss *engine.MapOutputMissingError
			if errors.As(err, &miss) {
				return &ShuffleResp{Miss: true, MissMapPart: miss.MapPart}, nil
			}
			return &ShuffleResp{Err: err.Error(), MissMapPart: -1}, nil
		}
		if st, mem := spill.SlabOf(ch); st != nil && len(mem) > 0 && wireSlabs[st.Name] {
			resp.Slabs = append(resp.Slabs, SlabHead{Chunk: i, Name: st.Name, Elem: st.Elem, Count: len(mem) / st.Elem})
			raw = append(raw, mem)
			continue
		}
		resp.Chunks[i] = ch
	}
	return resp, raw
}

// Named rejections of a ShuffleResp's shape.
var (
	errChunkCount = errors.New("dist: shuffle response chunk count differs from the request")
	errSlabIndex  = errors.New("dist: shuffle response slab out of order, out of range or over a chunk")
)

// recvChunks reads the answer to a request for n map partitions of a
// shuffle: the ShuffleResp, then the raw frame of each slab it lists. A
// server-side miss comes back as *engine.MapOutputMissingError and a
// server-side failure as an error; the connection stays in step for
// both. A response the client rejects poisons the codec, so the
// connection is never used again.
func recvChunks(c *Codec, shuffle, n int) ([]any, error) {
	m, err := c.Recv()
	if err != nil {
		return nil, err
	}
	resp, ok := m.(*ShuffleResp)
	if !ok {
		return nil, c.poison(fmt.Errorf("dist: shuffle server answered %T", m))
	}
	if (resp.Miss || resp.Err != "") && len(resp.Slabs) > 0 {
		return nil, c.poison(fmt.Errorf("%w: %d slabs after a failed request", errSlabIndex, len(resp.Slabs)))
	}
	if resp.Miss {
		return nil, &engine.MapOutputMissingError{Shuffle: shuffle, MapPart: resp.MissMapPart}
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	if len(resp.Chunks) != n {
		return nil, c.poison(fmt.Errorf("%w: %d chunks for %d parts", errChunkCount, len(resp.Chunks), n))
	}
	prev := -1
	for _, s := range resp.Slabs {
		if s.Chunk <= prev || s.Chunk >= n || resp.Chunks[s.Chunk] != nil {
			return nil, c.poison(fmt.Errorf("%w: slab for chunk %d after %d, of %d", errSlabIndex, s.Chunk, prev, n))
		}
		prev = s.Chunk
		if resp.Chunks[s.Chunk], err = c.recvSlab(s.Name, s.Elem, s.Count); err != nil {
			return nil, err
		}
	}
	return resp.Chunks, nil
}

// fetchOn runs one request/response exchange on a shuffle connection.
// A miss is returned as it came; every other error, named after the
// peer, is transient for the caller's retry loop.
func fetchOn(c *Codec, addr string, shuffle, reducePart int, mapParts []int) ([]any, error) {
	err := c.Send(&ShuffleReq{Shuffle: shuffle, ReducePart: reducePart, MapParts: mapParts})
	var chunks []any
	if err == nil {
		chunks, err = recvChunks(c, shuffle, len(mapParts))
	}
	var miss *engine.MapOutputMissingError
	if err != nil && !errors.As(err, &miss) {
		err = fmt.Errorf("dist: shuffle fetch from %s: %w", addr, err)
	}
	return chunks, err
}

func dialShuffle(addr string) (*Codec, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dist: dial shuffle server %s: %w", addr, err)
	}
	return NewCodec(conn, 0), nil
}

// FetchPeerChunks pulls the chunks of mapParts for one reduce partition
// from the shuffle server at addr over a connection of its own, dialled
// for this call and closed after it. A server-side missing partition
// comes back as *engine.MapOutputMissingError with the same fields a
// local fetch would carry; transport failures are returned as plain
// (transient) errors for the caller's retry loop. Executors fetch
// through their peerPool instead.
func FetchPeerChunks(addr string, shuffle, reducePart int, mapParts []int) ([]any, error) {
	c, err := dialShuffle(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return fetchOn(c, addr, shuffle, reducePart, mapParts)
}

// peerPool keeps an executor's idle shuffle connections by peer
// address, so a gather pays the dial, gob's type descriptors and its
// decode engines once per connection instead of once per fetch. A
// connection serves one exchange at a time — two concurrent gathers to
// one peer take two — and goes back to the pool only while its codec
// is healthy: a poisoned one has already closed its connection. Once
// closed (the executor's Kill or exit), the pool closes what it holds
// and every later fetch closes its connection after use.
type peerPool struct {
	mu     sync.Mutex
	idle   map[string][]*Codec
	closed bool
}

// fetch is FetchPeerChunks over a pooled connection.
func (p *peerPool) fetch(addr string, shuffle, reducePart int, mapParts []int) ([]any, error) {
	c := p.take(addr)
	if c == nil {
		var err error
		if c, err = dialShuffle(addr); err != nil {
			return nil, err
		}
	}
	chunks, err := fetchOn(c, addr, shuffle, reducePart, mapParts)
	p.give(addr, c)
	return chunks, err
}

func (p *peerPool) take(addr string) *Codec {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := p.idle[addr]
	if len(idle) == 0 {
		return nil
	}
	c := idle[len(idle)-1]
	p.idle[addr] = idle[:len(idle)-1]
	return c
}

func (p *peerPool) give(addr string, c *Codec) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || c.failed() != nil {
		c.Close()
		return
	}
	if p.idle == nil {
		p.idle = map[string][]*Codec{}
	}
	p.idle[addr] = append(p.idle[addr], c)
}

func (p *peerPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, idle := range p.idle {
		for _, c := range idle {
			c.Close()
		}
	}
	p.idle = nil
}
