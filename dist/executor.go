package dist

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hpcmr/engine"
	"hpcmr/fault"
	"hpcmr/internal/spill"
)

// ExecutorConfig configures one executor process (or in-process
// executor, for tests).
type ExecutorConfig struct {
	// ID is the executor's cluster identity, 0..N-1.
	ID int
	// DriverAddr is the driver's control listener.
	DriverAddr string
	// MemoryBudget bounds the executor's resident shuffle bytes; above
	// it, least-recently-used map outputs spill to local disk. 0 keeps
	// everything resident.
	MemoryBudget int64
	// SpillDir is where a budgeted executor writes spill files; each
	// executor uses its own exec-<id> subdirectory, so one shared path
	// serves a whole node. Empty means a private temp dir, removed on
	// exit.
	SpillDir string
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Executor is one worker of a distributed cluster: it registers with
// the driver, heartbeats, runs dispatched map/reduce tasks against a
// local shuffle store, and serves that store to peers over its shuffle
// server.
type Executor struct {
	cfg      ExecutorConfig
	store    *engine.ShuffleStore
	server   *ShuffleServer
	shuffleL net.Listener

	codec *Codec
	peers peerPool
	inj   *fault.Injector
	start time.Time

	killOnce sync.Once
	killed   chan struct{}
}

func (e *Executor) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// elapsed is the executor's fault-injection clock, seconds since it
// connected — mirroring engine.Runtime's clock so a transient plan
// replays on roughly the timeline its author wrote.
func (e *Executor) elapsed() float64 { return time.Since(e.start).Seconds() }

// Kill abruptly terminates an in-process executor: connections — the
// control connection, the shuffle server's, the pooled ones to peers —
// drop immediately, no goodbye. It is the goroutine analogue of SIGKILL
// for tests that cannot spawn processes.
func (e *Executor) Kill() {
	e.killOnce.Do(func() {
		close(e.killed)
		if e.codec != nil {
			e.codec.Close()
		}
		if e.server != nil {
			e.server.Close()
		}
		e.peers.close()
	})
}

// NewExecutor prepares an executor; Run drives it to completion.
func NewExecutor(cfg ExecutorConfig) *Executor {
	return &Executor{
		cfg:    cfg,
		store:  engine.NewShuffleStore(),
		killed: make(chan struct{}),
	}
}

// Run connects to the driver, registers, and serves tasks until the
// driver shuts the cluster down (nil), the control connection drops, or
// registration is rejected.
func (e *Executor) Run() error {
	if e.cfg.MemoryBudget > 0 {
		dir := e.cfg.SpillDir
		if dir != "" {
			dir = filepath.Join(dir, fmt.Sprintf("exec-%d", e.cfg.ID))
		}
		tier, err := spill.NewTier(spill.NewAccountant(e.cfg.MemoryBudget), dir, fmt.Sprintf("hpcmr-exec%d-spill-*", e.cfg.ID))
		if err != nil {
			return fmt.Errorf("dist: executor %d spill store: %w", e.cfg.ID, err)
		}
		defer tier.Close()
		tier.SetAudit(func(kind string, value float64, detail string) {
			e.logf("executor %d %s %.0fB %s", e.cfg.ID, kind, value, detail)
		})
		e.store = engine.NewTieredShuffleStore(tier)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("dist: executor %d shuffle listener: %w", e.cfg.ID, err)
	}
	e.shuffleL = ln
	e.server = NewShuffleServer(e.store)
	go e.server.Serve(ln)
	defer e.server.Close()
	defer e.peers.close()

	conn, err := net.DialTimeout("tcp", e.cfg.DriverAddr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dist: executor %d dial driver %s: %w", e.cfg.ID, e.cfg.DriverAddr, err)
	}
	e.codec = NewCodec(conn, 0)
	defer e.codec.Close()
	e.start = time.Now()

	if err := e.codec.Send(&Hello{ID: e.cfg.ID, ShuffleAddr: ln.Addr().String(), WireLayout: wireLayout}); err != nil {
		return err
	}
	m, err := e.codec.Recv()
	if err != nil {
		return fmt.Errorf("dist: executor %d await HelloAck: %w", e.cfg.ID, err)
	}
	ack, ok := m.(*HelloAck)
	if !ok {
		return fmt.Errorf("dist: executor %d expected HelloAck, got %T", e.cfg.ID, m)
	}
	if !ack.OK {
		return fmt.Errorf("dist: executor %d registration rejected: %s", e.cfg.ID, ack.Reason)
	}
	if len(ack.TransientPlan) > 0 {
		plan, err := fault.Decode(ack.TransientPlan)
		if err != nil {
			return fmt.Errorf("dist: executor %d transient plan: %w", e.cfg.ID, err)
		}
		e.inj = fault.NewInjector(plan)
	}
	e.logf("executor %d registered: shuffle=%s driver=%s", e.cfg.ID, ln.Addr(), e.cfg.DriverAddr)

	hbDone := make(chan struct{})
	defer close(hbDone)
	go e.heartbeat(hbDone)

	// The driver keeps more attempts dispatched than the executor has
	// cores; they wait here in arrival order for one of ack.Cores
	// workers. The control reader only appends, so however many wait, a
	// DropShuffle or ShutdownReq behind them is handled at once.
	runq := newRunQueue()
	defer runq.close()
	for c := 0; c < ack.Cores; c++ {
		go func() {
			for t, ok := runq.pop(); ok; t, ok = runq.pop() {
				e.runTask(t)
			}
		}()
	}

	for {
		m, err := e.codec.Recv()
		if err != nil {
			select {
			case <-e.killed:
				return nil
			default:
			}
			return fmt.Errorf("dist: executor %d control connection: %w", e.cfg.ID, err)
		}
		switch msg := m.(type) {
		case *RunTask:
			runq.push(msg)
		case *DropShuffle:
			e.store.Drop(msg.Shuffle)
		case *ShutdownReq:
			e.logf("executor %d shutting down", e.cfg.ID)
			return nil
		default:
			e.logf("executor %d ignoring %T", e.cfg.ID, m)
		}
	}
}

func (e *Executor) heartbeat(done chan struct{}) {
	t := time.NewTicker(heartbeatInterval)
	defer t.Stop()
	var seq uint64
	for {
		select {
		case <-done:
			return
		case <-e.killed:
			return
		case <-t.C:
			seq++
			if err := e.codec.Send(&Heartbeat{ID: e.cfg.ID, Seq: seq}); err != nil {
				return
			}
		}
	}
}

// runTask executes one dispatched attempt and reports TaskDone.
//
// A result too large for its raw frame is reported as the attempt's
// error rather than sent: an over-limit Send would poison the codec and
// turn a deterministic job failure into the loss of every executor
// that tries it. Any Send that does fail has closed the control connection
// (Codec), so the driver sees this executor as lost and requeues.
func (e *Executor) runTask(t *RunTask) {
	done := e.execute(t)
	done.Seq = t.Seq
	if len(done.Result) > e.codec.max {
		done = &TaskDone{Seq: t.Seq, MissMapPart: -1, UnreachableExec: -1,
			Err: fmt.Sprintf("dist: reduce task %d of job %q: result of %d bytes exceeds frame limit %d",
				t.Part, t.Spec.Job, len(done.Result), e.codec.max)}
	}
	if err := e.codec.Send(done); err != nil {
		e.logf("executor %d task seq=%d report failed, control connection closed: %v", e.cfg.ID, t.Seq, err)
	}
}

// execute runs one attempt under the executor's slow windows and folds
// whatever went wrong into the TaskDone: every failure — a missing map
// output found by the gather, a job function's error or panic — leaves
// through the one translation at the bottom. The driver has already
// carried out the attempt's hang and injected failure.
func (e *Executor) execute(t *RunTask) *TaskDone {
	done := &TaskDone{MissMapPart: -1, UnreachableExec: -1}
	now, started := e.elapsed(), time.Now()
	err := e.runBody(t, done)
	if e.inj != nil {
		if f := e.inj.SlowFactor(e.cfg.ID, now); f > 1 {
			// The injector's slow factor divides effective speed; stretch
			// the attempt's wall time to match.
			time.Sleep(time.Duration(float64(time.Since(started)) * (f - 1)))
		}
	}
	if err != nil {
		var miss *engine.MapOutputMissingError
		if errors.As(err, &miss) {
			done.Miss, done.MissShuffle, done.MissMapPart = true, miss.Shuffle, miss.MapPart
		}
		done.Err = err.Error()
	}
	return done
}

// runBody is the one task body, gather → call → put. The fetch phase
// pulls the task's reduce partition of the gathered generation
// (zero-copy for self-owned partitions, network for the rest — under
// the stable partitioner and locality placement nearly everything is
// self-owned); the store phase writes the call's buckets into the local
// store as the task's map partition of the next generation. A map task
// has no fetch phase and a reduce task no store phase.
func (e *Executor) runBody(t *RunTask, done *TaskDone) error {
	job, err := LookupJob(t.Spec.Job)
	if err != nil {
		return err
	}
	var chunks []any
	if t.Gather != noShuffle {
		fetchStart := time.Now()
		chunks, err = e.gather(t.Gather, t.Locations, t.Part, done)
		done.FetchSeconds = time.Since(fetchStart).Seconds()
		if err != nil {
			return err
		}
	}
	var out MapOutput
	out, done.Result, err = call(job, t, chunks)
	if err != nil || t.Put == noShuffle {
		return err
	}
	if err := e.store.RegisterWithID(t.Put, t.Spec.stageParts(t.Step), t.Spec.ReduceParts); err != nil {
		return err
	}
	if err := e.store.PutChunksFrom(t.Put, t.Part, e.cfg.ID, out.Buckets); err != nil {
		return err
	}
	done.Records, done.Bytes = out.Records, out.Bytes
	done.BucketBytes = bucketVolumes(out.Buckets)
	return nil
}

// call invokes the job function t's phases select — Map for a task
// that gathers nothing, Reduce for one that puts nothing, Step for one
// that does both — the only place job code runs on an executor. A
// panic there is the attempt's failure, in the engine's wording for
// in-process tasks: unrecovered it would kill the executor process, the
// driver would requeue the task as a loss, and a deterministic bug in
// one job would take down every executor in turn.
func call(job Job, t *RunTask, chunks []any) (out MapOutput, result []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task panic: %v", r)
		}
	}()
	switch {
	case t.Gather == noShuffle:
		out, err = job.Map(t.Spec, t.Part)
	case t.Put == noShuffle:
		result, err = job.Reduce(t.Spec, t.Part, chunks)
	case job.Step != nil:
		out, err = job.Step(t.Spec, t.Step, t.Part, chunks)
	default:
		err = fmt.Errorf("dist: job %q has no step function", t.Spec.Job)
	}
	return out, result, err
}

// gather pulls every map partition's chunk of reduce partition part
// from the given shuffle: the executor's own partitions come zero-copy
// from the local store; each remote peer is asked once for all of its
// partitions in one batched request over a pooled connection, under the
// engine's bounded retry/backoff — a pooled connection the peer has
// dropped fails its attempt, and the retry takes another or redials.
// locations must cover map partitions 0..len-1. A peer unreachable
// after retries is reported via done.UnreachableExec so the driver can
// treat the fetch failure as executor loss.
func (e *Executor) gather(shuffle int, locations []Loc, part int, done *TaskDone) ([]any, error) {
	chunks := make([]any, len(locations))
	byOwner := make(map[int][]Loc)
	for _, loc := range locations {
		if loc.Exec < 0 {
			return nil, &engine.MapOutputMissingError{Shuffle: shuffle, MapPart: loc.MapPart}
		}
		byOwner[loc.Exec] = append(byOwner[loc.Exec], loc)
	}
	owners := make([]int, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	for _, owner := range owners {
		locs := byOwner[owner]
		if owner == e.cfg.ID {
			for _, loc := range locs {
				ch, err := e.store.FetchChunk(shuffle, loc.MapPart, part)
				if err != nil {
					return nil, err
				}
				chunks[loc.MapPart] = ch
				r, b := engine.ChunkVolume(ch)
				done.LocalRecords += r
				done.LocalBytes += b
			}
			continue
		}
		parts := make([]int, len(locs))
		for i, loc := range locs {
			parts[i] = loc.MapPart
		}
		addr := locs[0].Addr
		var fetched []any
		err := engine.RetryFetch(
			func(attempt int, backoff time.Duration, last error) {
				e.logf("executor %d fetch retry %d against executor %d (%s): %v",
					e.cfg.ID, attempt, owner, addr, last)
			},
			func() error {
				if e.inj != nil {
					if err := e.inj.FetchFailure(e.cfg.ID, e.elapsed()); err != nil {
						return err
					}
				}
				var ferr error
				fetched, ferr = e.peers.fetch(addr, shuffle, part, parts)
				return ferr
			})
		if err != nil {
			var miss *engine.MapOutputMissingError
			if !errors.As(err, &miss) {
				done.UnreachableExec = owner
			}
			return nil, err
		}
		for i, loc := range locs {
			chunks[loc.MapPart] = fetched[i]
			r, b := engine.ChunkVolume(fetched[i])
			done.RemoteRecords += r
			done.RemoteBytes += b
		}
	}
	return chunks, nil
}

// runQueue is an executor's FIFO of dispatched attempts waiting for a
// core. push never blocks: the driver bounds how many attempts it
// keeps dispatched, and the control reader must stay free to read.
type runQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	tasks  []*RunTask
	closed bool
}

func newRunQueue() *runQueue {
	q := &runQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *runQueue) push(t *RunTask) {
	q.mu.Lock()
	q.tasks = append(q.tasks, t)
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks for the oldest attempt; false once the queue is closed.
func (q *runQueue) pop() (*RunTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.tasks) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil, false
	}
	t := q.tasks[0]
	q.tasks[0] = nil
	q.tasks = q.tasks[1:]
	return t, true
}

// close discards the attempts still waiting — the driver that sent
// them is gone or shutting the executor down — and stops the workers
// once their running attempts return.
func (q *runQueue) close() {
	q.mu.Lock()
	q.closed, q.tasks = true, nil
	q.mu.Unlock()
	q.cond.Broadcast()
}

// bucketVolumes measures each bucket chunk's in-memory volume — the
// per-reduce-bucket weights the driver records against its placeholder
// ownership row for locality scoring.
func bucketVolumes(buckets []any) []int64 {
	out := make([]int64, len(buckets))
	for i, ch := range buckets {
		_, out[i] = engine.ChunkVolume(ch)
	}
	return out
}
