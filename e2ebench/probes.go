package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"hpcmr/dist"
	"hpcmr/engine"
	"hpcmr/internal/spill"
)

// Layer probes time one layer's public entry points in this process,
// on the chunks the workload itself produces (one call of the job's
// Map, plus one Step for iterative jobs). They import nothing the
// end-to-end run does not use. Each reports a median over probeSamples.
const probeSamples = 30

// schedProbeTasks is the stage size of the dispatch probe: enough
// tasks that the per-stage cost is amortised away.
const schedProbeTasks = 1000

// probeChunks returns one map-side output row of the workload (one
// chunk per reduce bucket) and its largest chunk.
func probeChunks(spec dist.JobSpec) (row []any, largest any, err error) {
	job, err := dist.LookupJob(spec.Job)
	if err != nil {
		return nil, nil, err
	}
	out, err := job.Map(spec, 0)
	if err != nil {
		return nil, nil, err
	}
	if job.Step != nil {
		// An iterative job's shuffle carries superstep output, not the
		// seed generation: run bucket 0's first step on what partition 0
		// seeded.
		gathered := make([]any, spec.MapParts)
		gathered[0] = out.Buckets[0]
		if out, err = job.Step(spec, 1, 0, gathered); err != nil {
			return nil, nil, err
		}
	}
	var most int64
	for _, ch := range out.Buckets {
		if n, _ := engine.ChunkVolume(ch); n > most {
			most, largest = n, ch
		}
	}
	if largest == nil {
		return nil, nil, fmt.Errorf("%s: map partition 0 produced no chunk", spec.Job)
	}
	return out.Buckets, largest, nil
}

// bufConn is the in-memory connection the codec probe frames into, so
// encode and decode are timed without a socket between them.
type bufConn struct {
	net.Conn // never used: the codec only reads and writes
	buf      bytes.Buffer
}

func (c *bufConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c *bufConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// observations collects probe samples by metric name.
type observations map[string][]float64

func (o observations) add(name string, v float64) { o[name] = append(o[name], v) }

// runProbes measures every probe metric of the per-layer table for one
// workload and returns each as the median of probeSamples samples. dir
// is scratch space for spill files.
func runProbes(w workload, spec dist.JobSpec, dir string) (map[string]float64, error) {
	row, chunk, err := probeChunks(spec)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	obs := make(observations)
	err = errors.Join(
		probeCodec(obs, chunk),
		probeFetch(obs, chunk),
		probeStore(obs, row),
		probeSched(obs),
		probeSpillFile(obs, row, filepath.Join(dir, "probe.spill")),
	)
	if err != nil {
		return nil, fmt.Errorf("%s: probe: %w", w.name, err)
	}
	m := make(map[string]float64, len(obs)+2)
	for name, xs := range obs {
		m[name] = median(xs)
	}
	ev, rs, err := spillReplay(w, spec, filepath.Join(dir, "replay"))
	if err != nil {
		return nil, fmt.Errorf("%s: spill replay: %w", w.name, err)
	}
	m["spill.evictions"], m["spill.restores"] = float64(ev), float64(rs)
	return m, nil
}

// probeCodec times dist's codec on one ShuffleResp frame carrying the
// workload's chunk.
func probeCodec(obs observations, chunk any) error {
	records, _ := engine.ChunkVolume(chunk)
	conn := &bufConn{}
	codec := dist.NewCodec(conn, 0)
	resp := &dist.ShuffleResp{MissMapPart: -1, Chunks: []any{chunk}}
	for i := 0; i < probeSamples; i++ {
		start := time.Now()
		if err := codec.Send(resp); err != nil {
			return err
		}
		obs.add("dist.codec.encode_ns_rec", float64(time.Since(start).Nanoseconds())/float64(records))
		obs.add("dist.codec.wire_bytes_rec", float64(conn.buf.Len())/float64(records))
		start = time.Now()
		if _, err := codec.Recv(); err != nil {
			return err
		}
		obs.add("dist.codec.decode_ns_rec", float64(time.Since(start).Nanoseconds())/float64(records))
	}
	return nil
}

// probeFetch times the dial-per-call peer fetch against a shuffle
// server on loopback: the large chunk for bandwidth, an empty bucket
// for the round trip.
func probeFetch(obs observations, chunk any) error {
	_, chunkBytes := engine.ChunkVolume(chunk)
	store := engine.NewShuffleStore()
	id := store.Register(1, 2)
	if err := store.PutChunksFrom(id, 0, 0, []any{chunk, nil}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := dist.NewShuffleServer(store)
	go srv.Serve(ln) // returns when Close closes the listener
	defer srv.Close()
	addr := ln.Addr().String()
	for i := 0; i < probeSamples; i++ {
		start := time.Now()
		if _, err := dist.FetchPeerChunks(addr, id, 0, []int{0}); err != nil {
			return err
		}
		obs.add("dist.shuffle.fetch_mb_s", float64(chunkBytes)/1e6/time.Since(start).Seconds())
		start = time.Now()
		if _, err := dist.FetchPeerChunks(addr, id, 1, []int{0}); err != nil {
			return err
		}
		obs.add("dist.shuffle.fetch_rtt_us", float64(time.Since(start).Nanoseconds())/1e3)
	}
	return nil
}

// probeStore times the unbudgeted engine shuffle store: publish map
// rows, then gather every reduce bucket.
func probeStore(obs observations, row []any) error {
	const mapParts = 16
	chunks := float64(mapParts * len(row))
	for i := 0; i < probeSamples; i++ {
		store := engine.NewShuffleStore()
		id := store.Register(mapParts, len(row))
		start := time.Now()
		for p := 0; p < mapParts; p++ {
			if err := store.PutChunksFrom(id, p, 0, row); err != nil {
				return err
			}
		}
		obs.add("engine.store.put_ns_chunk", float64(time.Since(start).Nanoseconds())/chunks)
		start = time.Now()
		for r := range row {
			if _, err := store.FetchChunks(id, r); err != nil {
				return err
			}
		}
		obs.add("engine.store.fetch_ns_chunk", float64(time.Since(start).Nanoseconds())/chunks)
	}
	return nil
}

// probeSched times a stage of no-op tasks under the driver's policy
// and cluster shape.
func probeSched(obs observations) error {
	rt, err := engine.New(engine.Config{Executors: executors, CoresPerExecutor: coresPerExecutor, Policy: engine.ShuffleLocality})
	if err != nil {
		return err
	}
	defer rt.Close()
	noop := make([]engine.TaskSpec, schedProbeTasks)
	for i := range noop {
		noop[i].Run = func(*engine.TaskContext) error { return nil }
	}
	for i := 0; i < probeSamples; i++ {
		start := time.Now()
		if err := rt.RunStage("probe", noop); err != nil {
			return err
		}
		obs.add("engine.sched.dispatch_us_task", float64(time.Since(start).Nanoseconds())/1e3/schedProbeTasks)
	}
	return nil
}

// probeSpillFile times one map row out to a spill file and back. The
// file stays in the page cache, so this is encode, syscall and decode
// cost, not device bandwidth.
func probeSpillFile(obs observations, row []any, path string) error {
	entry := &spill.Entry{Space: "shuffle", ID: 1, Part: 0, Owner: 0, Chunks: row}
	for i := 0; i < probeSamples; i++ {
		start := time.Now()
		n, err := spill.WriteEntryFile(path, entry)
		if err != nil {
			return err
		}
		obs.add("spill.write_mb_s", float64(n)/1e6/time.Since(start).Seconds())
		start = time.Now()
		if _, err := spill.ReadEntryFile(path, "shuffle", 1, 0); err != nil {
			return err
		}
		obs.add("spill.read_mb_s", float64(n)/1e6/time.Since(start).Seconds())
	}
	return os.Remove(path)
}

// spillReplay counts the evictions and restores one executor's share
// of the job costs under the workload's budget: every other map
// partition is put into a budgeted store, then every reduce bucket is
// gathered from it. Single-threaded, so the counts repeat exactly.
func spillReplay(w workload, spec dist.JobSpec, dir string) (evictions, restores int64, err error) {
	if w.budget == 0 {
		return 0, 0, nil
	}
	job, err := dist.LookupJob(spec.Job)
	if err != nil {
		return 0, 0, err
	}
	store, err := engine.NewSpillingShuffleStore(spill.NewAccountant(w.budget), dir)
	if err != nil {
		return 0, 0, err
	}
	id := store.Register(spec.MapParts, spec.ReduceParts)
	for p := 0; p < spec.MapParts; p += executors {
		out, err := job.Map(spec, p)
		if err != nil {
			return 0, 0, err
		}
		if err := store.PutChunksFrom(id, p, 0, out.Buckets); err != nil {
			return 0, 0, err
		}
	}
	for r := 0; r < spec.ReduceParts; r++ {
		for p := 0; p < spec.MapParts; p += executors {
			if _, err := store.FetchChunk(id, p, r); err != nil {
				return 0, 0, err
			}
		}
	}
	st, _ := store.SpillStats()
	return st.Spills, st.Restores, nil
}
