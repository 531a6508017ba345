package dist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hpcmr/engine"
	"hpcmr/fault"
)

// maxJobRecoveries bounds lineage-repair rounds per stage, mirroring
// the rdd layer's ceiling.
const maxJobRecoveries = 8

// DriverConfig configures the cluster driver.
type DriverConfig struct {
	// Executors is the cluster size the driver waits for.
	Executors int
	// CoresPerExecutor bounds concurrent task dispatch per executor
	// (engine default when 0).
	CoresPerExecutor int
	// ControlAddr/ClientAddr are the listen addresses; "" picks an
	// ephemeral loopback port.
	ControlAddr, ClientAddr string
	// HeartbeatTimeout declares an executor dead when its last beat is
	// at least this old (DefaultHeartbeatTimeout when 0). Connection
	// loss is detected immediately; the timeout is the backstop for
	// hung-but-connected executors.
	HeartbeatTimeout time.Duration
	// Plan is the fault plan: crash events execute driver-side as real
	// executor kills (via Killer), transient events ship to executors in
	// the HelloAck and replay in-process.
	Plan fault.Plan
	// Killer physically kills executor id when a crash event fires —
	// SIGKILL for process clusters, Executor.Kill for in-process ones.
	// nil leaves only the connection-drop bookkeeping.
	Killer func(id int)
	// DisableLocality reverts the scheduler to FIFO placement instead
	// of the default shuffle-locality policy — the A/B toggle perf
	// scenarios use to measure what owner-aware placement saves.
	DisableLocality bool
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Driver runs the cluster's control plane: it owns the scheduling
// engine.Runtime whose task bodies proxy over TCP to registered
// executors, tracks liveness, and translates executor loss into the
// engine's FailExecutor/InvalidateOwner recovery path.
type Driver struct {
	cfg  DriverConfig
	rt   *engine.Runtime
	live *liveness

	controlLn, clientLn net.Listener

	transientPlan []byte

	goneMu sync.Mutex // orders ownership invalidation before the dead mark

	mu         sync.Mutex
	execs      map[int]*execConn
	pending    map[uint64]*pendingTask
	seq        uint64
	registered int
	readyOnce  sync.Once
	down       bool

	ready chan struct{}
	done  chan struct{}
}

type execConn struct {
	id          int
	codec       *Codec
	shuffleAddr string
}

type pendingTask struct {
	exec int
	ch   chan *TaskDone
}

func (d *Driver) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// NewDriver builds and starts a driver: listeners are bound and the
// engine runtime constructed, but jobs wait until WaitReady says all
// executors registered.
func NewDriver(cfg DriverConfig) (*Driver, error) {
	if cfg.Executors <= 0 {
		return nil, fmt.Errorf("dist: driver needs at least one executor, got %d", cfg.Executors)
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	d := &Driver{
		cfg:     cfg,
		live:    newLiveness(cfg.HeartbeatTimeout),
		execs:   make(map[int]*execConn),
		pending: make(map[uint64]*pendingTask),
		ready:   make(chan struct{}),
		done:    make(chan struct{}),
	}

	ecfg := engine.Config{Executors: cfg.Executors, CoresPerExecutor: cfg.CoresPerExecutor}
	if !cfg.DisableLocality {
		// Owner-aware placement by default: reduce and superstep tasks
		// carry preferences from the driver's ownership provenance, and
		// the policy trades them against the ELB imbalance rule.
		ecfg.Policy = engine.ShuffleLocality
	}
	if len(cfg.Plan.Events) > 0 {
		if err := cfg.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("dist: fault plan: %w", err)
		}
		crash := cfg.Plan.Filter(fault.KindCrash)
		if len(crash.Events) > 0 {
			ecfg.Faults = &killInjector{d: d, inner: fault.NewInjector(crash)}
		}
		transient := cfg.Plan.Filter(fault.TransientKinds...)
		if len(transient.Events) > 0 {
			enc, err := transient.Encode()
			if err != nil {
				return nil, err
			}
			d.transientPlan = enc
		}
	}
	rt, err := engine.New(ecfg)
	if err != nil {
		return nil, err
	}
	d.rt = rt

	control, client := cfg.ControlAddr, cfg.ClientAddr
	if control == "" {
		control = "127.0.0.1:0"
	}
	if client == "" {
		client = "127.0.0.1:0"
	}
	if d.controlLn, err = net.Listen("tcp", control); err != nil {
		rt.Close()
		return nil, fmt.Errorf("dist: control listener: %w", err)
	}
	if d.clientLn, err = net.Listen("tcp", client); err != nil {
		d.controlLn.Close()
		rt.Close()
		return nil, fmt.Errorf("dist: client listener: %w", err)
	}
	go d.acceptControl()
	go d.acceptClients()
	go d.monitor()
	d.logf("driver up: control=%s client=%s executors=%d", d.ControlAddr(), d.ClientAddr(), cfg.Executors)
	return d, nil
}

// ControlAddr is where executors register.
func (d *Driver) ControlAddr() string { return d.controlLn.Addr().String() }

// ClientAddr is where SubmitJob/ShutdownReq clients connect.
func (d *Driver) ClientAddr() string { return d.clientLn.Addr().String() }

// Runtime exposes the driver's scheduling engine (metrics, listeners,
// shuffle provenance) to harnesses.
func (d *Driver) Runtime() *engine.Runtime { return d.rt }

// Done closes when the driver has shut down — a client-initiated
// ShutdownReq included — so a foreground host process knows to exit.
func (d *Driver) Done() <-chan struct{} { return d.done }

// WaitReady blocks until every executor has registered, or fails after
// timeout.
func (d *Driver) WaitReady(timeout time.Duration) error {
	select {
	case <-d.ready:
		return nil
	case <-time.After(timeout):
		d.mu.Lock()
		n := d.registered
		d.mu.Unlock()
		return fmt.Errorf("dist: only %d/%d executors registered after %s", n, d.cfg.Executors, timeout)
	}
}

// Shutdown tears the cluster down: executors get a ShutdownReq, the
// listeners close, the engine winds down. Idempotent.
func (d *Driver) Shutdown() {
	d.mu.Lock()
	if d.down {
		d.mu.Unlock()
		return
	}
	d.down = true
	execs := make([]*execConn, 0, len(d.execs))
	for id, ec := range d.execs {
		if !d.live.Dead(id) {
			execs = append(execs, ec)
		}
	}
	d.mu.Unlock()
	close(d.done)
	for _, ec := range execs {
		ec.codec.Send(&ShutdownReq{})
		ec.codec.Close()
	}
	d.controlLn.Close()
	d.clientLn.Close()
	d.rt.Close()
	d.logf("driver down")
}

func (d *Driver) shuttingDown() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.down
}

// ---- registration, liveness, connection bookkeeping ----

func (d *Driver) acceptControl() {
	for {
		conn, err := d.controlLn.Accept()
		if err != nil {
			return
		}
		go d.handleControl(conn)
	}
}

func (d *Driver) handleControl(conn net.Conn) {
	c := NewCodec(conn, 0)
	m, err := c.Recv()
	if err != nil {
		c.Close()
		return
	}
	hello, ok := m.(*Hello)
	if !ok {
		c.Close()
		return
	}
	reject := func(reason string) {
		d.logf("registration rejected for executor %d: %s", hello.ID, reason)
		c.Send(&HelloAck{OK: false, Reason: reason})
		c.Close()
	}
	if hello.ID < 0 || hello.ID >= d.cfg.Executors {
		reject(fmt.Sprintf("executor ID %d outside cluster of %d", hello.ID, d.cfg.Executors))
		return
	}
	if err := d.live.Register(hello.ID, time.Now()); err != nil {
		reject(err.Error())
		return
	}
	ec := &execConn{id: hello.ID, codec: c, shuffleAddr: hello.ShuffleAddr}
	d.mu.Lock()
	d.execs[hello.ID] = ec
	d.registered++
	allIn := d.registered == d.cfg.Executors
	d.mu.Unlock()
	if err := c.Send(&HelloAck{OK: true, Executors: d.cfg.Executors, TransientPlan: d.transientPlan}); err != nil {
		d.executorGone(hello.ID, fmt.Sprintf("HelloAck send: %v", err))
		return
	}
	d.logf("executor %d registered from %s (shuffle %s)", hello.ID, c.RemoteAddr(), hello.ShuffleAddr)
	if allIn {
		d.readyOnce.Do(func() { close(d.ready) })
	}
	go d.readLoop(ec)
}

// readLoop drains one executor's control connection: heartbeats feed
// liveness, TaskDone frames settle pending dispatches. A read error is
// an immediate loss — a SIGKILLed process drops its socket long before
// the heartbeat timeout fires.
func (d *Driver) readLoop(ec *execConn) {
	for {
		m, err := ec.codec.Recv()
		if err != nil {
			if !d.shuttingDown() {
				d.executorGone(ec.id, fmt.Sprintf("connection lost: %v", err))
			}
			return
		}
		switch msg := m.(type) {
		case *Heartbeat:
			d.live.Beat(msg.ID, time.Now())
		case *TaskDone:
			d.settle(msg)
		default:
			d.logf("executor %d sent unexpected %T", ec.id, m)
		}
	}
}

// monitor expires executors whose heartbeats went quiet.
func (d *Driver) monitor() {
	interval := d.cfg.HeartbeatTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-d.done:
			return
		case now := <-t.C:
			for _, id := range d.live.Expired(now) {
				d.executorGone(id, "heartbeat timeout")
			}
		}
	}
}

// executorGone runs the loss path for an executor, once. Order matters
// twice. FailExecutor, which invalidates the executor's map outputs,
// runs BEFORE the dead mark and under one lock with it: runTask refuses
// a dead owner as a missing map output and the repair re-runs what
// MissingParts reports, so no task may see the mark while the store
// still lists the partitions as present. And both precede failing the
// in-flight dispatches, so that the engine's dead-executor check
// classifies those attempts as losses to requeue — not failures that
// burn the task's retry budget.
func (d *Driver) executorGone(id int, reason string) {
	d.goneMu.Lock()
	lost := d.rt.FailExecutor(id)
	fresh := d.live.MarkDead(id)
	d.goneMu.Unlock()
	if !fresh {
		return
	}
	d.logf("executor %d lost: %s", id, reason)
	if len(lost) > 0 {
		d.logf("executor %d took %d map outputs; lineage will rebuild them", id, len(lost))
	}
	d.mu.Lock()
	ec := d.execs[id]
	var failed []*pendingTask
	for seq, p := range d.pending {
		if p.exec == id {
			failed = append(failed, p)
			delete(d.pending, seq)
		}
	}
	d.mu.Unlock()
	if ec != nil {
		ec.codec.Close()
	}
	for _, p := range failed {
		p.ch <- nil
	}
}

// killExecutor is the crash plan's trigger: physically kill the
// executor, then run the loss path. The engine calls FailExecutor
// itself right after the injector returns; the duplicate is a no-op.
func (d *Driver) killExecutor(id int) {
	d.logf("fault plan: killing executor %d", id)
	if d.cfg.Killer != nil {
		d.cfg.Killer(id)
	}
	d.executorGone(id, "crash plan")
}

// killInjector adapts the crash slice of a fault plan into the engine's
// injector interface: crash triggers become real executor kills, and
// every transient query answers "healthy" — transient faults replay
// inside the executors, not here.
type killInjector struct {
	d     *Driver
	inner *fault.Injector
}

func (k *killInjector) TimeCrashes(now float64) []int {
	execs := k.inner.TimeCrashes(now)
	for _, e := range execs {
		k.d.killExecutor(e)
	}
	return execs
}

func (k *killInjector) TaskCompleted(now float64) []int {
	execs := k.inner.TaskCompleted(now)
	for _, e := range execs {
		k.d.killExecutor(e)
	}
	return execs
}

func (k *killInjector) SlowFactor(node int, now float64) float64      { return 1 }
func (k *killInjector) HangDuration(node int, now float64) float64    { return 0 }
func (k *killInjector) TaskFailure(node, task int, now float64) error { return nil }
func (k *killInjector) FetchFailure(node int, now float64) error      { return nil }

// ---- task dispatch ----

// dispatch sends one task to an executor and awaits its TaskDone. A nil
// result (connection lost, executor declared dead) comes back as an
// error; the engine's dead-executor check then requeues the task on the
// survivors without burning its retry budget.
func (d *Driver) dispatch(exec int, t *RunTask) (*TaskDone, error) {
	d.mu.Lock()
	ec := d.execs[exec]
	if ec == nil || d.live.Dead(exec) {
		d.mu.Unlock()
		return nil, fmt.Errorf("dist: executor %d unavailable", exec)
	}
	d.seq++
	t.Seq = d.seq
	p := &pendingTask{exec: exec, ch: make(chan *TaskDone, 1)}
	d.pending[t.Seq] = p
	d.mu.Unlock()

	if err := ec.codec.Send(t); err != nil {
		d.mu.Lock()
		delete(d.pending, t.Seq)
		d.mu.Unlock()
		// A failed write means the control connection is broken: declare
		// the executor lost NOW, before returning, so the engine sees it
		// dead when this attempt settles and requeues the task instead of
		// burning its retry budget.
		d.executorGone(exec, fmt.Sprintf("dispatch write failed: %v", err))
		return nil, fmt.Errorf("dist: dispatch to executor %d: %w", exec, err)
	}
	done := <-p.ch
	if done == nil {
		return nil, fmt.Errorf("dist: executor %d lost while running task", exec)
	}
	return done, nil
}

// settle routes a TaskDone to its waiting dispatch, dropping results
// whose dispatch was already failed (executor declared dead first).
func (d *Driver) settle(done *TaskDone) {
	d.mu.Lock()
	p := d.pending[done.Seq]
	delete(d.pending, done.Seq)
	d.mu.Unlock()
	if p != nil {
		p.ch <- done
	}
}

func (d *Driver) shuffleAddrOf(exec int) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ec := d.execs[exec]; ec != nil {
		return ec.shuffleAddr
	}
	return ""
}

// ---- job execution ----

// RunJob runs one registered job on the cluster and returns its merged
// result bytes. Every job is a chain of shuffle generations: the map
// stage writes generation 0, each of the job's Steps superstep stages
// gathers generation g-1 and writes generation g, and the reduce stage
// gathers the last one. A map task is a task with an empty fetch phase,
// a reduce task one with an empty store phase, and a job without a Step
// function is the chain of length one. All generations stay registered
// until the job ends, so lineage repair after an executor loss re-runs
// only the missing partitions of earlier generations, in dependency
// order.
func (d *Driver) RunJob(spec JobSpec) ([]byte, error) {
	spec, err := spec.withDefaults(d.cfg.Executors)
	if err != nil {
		return nil, err
	}
	job, err := LookupJob(spec.Job)
	if err != nil {
		return nil, err
	}
	if err := d.WaitReady(10 * time.Second); err != nil {
		return nil, err
	}
	steps := 0
	if job.Step != nil && spec.Steps > 0 {
		steps = spec.Steps
	}
	gens := make([]int, steps+1)
	for g := range gens {
		gens[g] = d.rt.Shuffle().Register(spec.stageParts(g), spec.ReduceParts)
	}
	defer func() {
		for _, id := range gens {
			d.dropShuffle(id)
		}
	}()
	d.logf("job %s: steps=%d generations=%v mapParts=%d reduceParts=%d",
		spec.Job, steps, gens, spec.MapParts, spec.ReduceParts)

	var results [][]byte
	for g := 0; g <= len(gens); g++ {
		parts := make([]int, spec.stageParts(g))
		for i := range parts {
			parts[i] = i
		}
		if results, err = d.runStage(spec, gens, g, parts); err != nil {
			return nil, err
		}
	}
	return job.Merge(spec, results)
}

// runStage runs (or, under repair, re-runs) the given partitions of
// chain stage g: stage 0 is the map stage, stages 1..len(gens)-1 the
// supersteps, stage len(gens) the reduce. A stage that gathers prefers,
// per partition, the executors owning most of the gathered generation
// (Runtime.ReducePreferences), so under the shuffle-locality policy a
// bucket stays where its data already is and the fetch phase is the
// executor-local zero-copy path. A missing-map-output failure repairs
// generations 0..g-1 and retries. The reduce stage returns its tasks'
// encoded outputs by partition — RunStage returning nil means every
// task succeeded, so an empty output is a result, not a task that never
// ran; every other stage returns nil.
func (d *Driver) runStage(spec JobSpec, gens []int, g int, parts []int) ([][]byte, error) {
	st := stage{kind: KindStep, index: g}
	switch {
	case g == 0:
		st.kind, st.put = KindMap, gens[0]
		st.name = fmt.Sprintf("%s-map-%d", spec.Job, st.put)
	case g == len(gens):
		st.kind, st.gather = KindReduce, gens[g-1]
		st.name = fmt.Sprintf("%s-reduce-%d", spec.Job, st.gather)
	default:
		st.gather, st.put = gens[g-1], gens[g]
		st.name = fmt.Sprintf("%s-step%d-%d", spec.Job, g, st.put)
	}
	var prefs [][]int
	if st.gather != noShuffle {
		prefs = d.rt.ReducePreferences([]int{st.gather}, spec.ReduceParts)
	}
	var results [][]byte
	if st.put == noShuffle {
		results = make([][]byte, spec.ReduceParts)
	}
	var resMu sync.Mutex
	tasks := make([]engine.TaskSpec, len(parts))
	for i, p := range parts {
		if p < len(prefs) {
			tasks[i].Preferred = prefs[p]
		}
		tasks[i].Run = func(tc *engine.TaskContext) error {
			res, err := d.runTask(spec, st, p, tc)
			if err != nil || results == nil {
				return err
			}
			resMu.Lock()
			results[p] = res
			resMu.Unlock()
			return nil
		}
	}
	err := engine.RunStageRecovering(maxJobRecoveries,
		func() error { return d.rt.RunStage(st.name, tasks) },
		func(miss *engine.MapOutputMissingError) error {
			d.logf("stage %s missing shuffle %d map partition %d; repairing generation chain", st.name, miss.Shuffle, miss.MapPart)
			return d.repairChain(spec, gens, g-1)
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// stage is one link of a job's chain as its tasks see it: which job
// function they call, and which generations they gather and put.
type stage struct {
	name   string
	kind   string
	index  int
	gather int
	put    int
}

// repairChain re-executes the missing partitions of generations
// 0..upto in dependency order — the job's lineage recovery. Re-running
// a later generation's partitions may itself trip over a lost earlier
// one; each repaired stage recovers recursively through runStage,
// bounded by maxJobRecoveries per stage. A repair that finds nothing
// missing answers a miss the driver's store does not show yet (an
// executor's view of a peer): it waits a moment for the loss path to
// catch up, so the recovery rounds are not all spent in one microsecond.
func (d *Driver) repairChain(spec JobSpec, gens []int, upto int) error {
	reran := false
	for g := 0; g <= upto; g++ {
		missing := d.rt.Shuffle().MissingParts(gens[g])
		if len(missing) == 0 {
			continue
		}
		d.logf("repairing generation %d (shuffle %d): partitions %v", g, gens[g], missing)
		if _, err := d.runStage(spec, gens, g, missing); err != nil {
			return err
		}
		reran = true
	}
	if !reran {
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}

// runTask proxies one task attempt to the executor the engine picked:
// the single place a RunTask is built and a TaskDone interpreted.
//
// A task that gathers gets its fetch locations computed per attempt
// from the driver's current provenance, so an attempt after an executor
// loss either sees the repaired owners or surfaces
// MapOutputMissingError immediately instead of dialing a dead peer.
//
// A task that puts leaves its chunks in the executor's local store; the
// driver records a placeholder row — carrying the executor-reported
// per-bucket byte weights — so the shared ShuffleStore tracks who owns
// each partition and how much, for Owners/MissingParts/InvalidateOwner
// provenance and the next stage's locality scoring, without holding the
// data. Only the reduce stage's tasks return result bytes.
func (d *Driver) runTask(spec JobSpec, st stage, part int, tc *engine.TaskContext) ([]byte, error) {
	var locs []Loc
	if st.gather != noShuffle {
		owners := d.rt.Shuffle().Owners(st.gather)
		locs = make([]Loc, len(owners))
		for m, o := range owners {
			if o < 0 || d.live.Dead(o) {
				return nil, &engine.MapOutputMissingError{Shuffle: st.gather, MapPart: m}
			}
			locs[m] = Loc{MapPart: m, Exec: o, Addr: d.shuffleAddrOf(o)}
		}
	}
	start := time.Now()
	done, err := d.dispatch(tc.Executor, &RunTask{
		Kind: st.kind, Spec: spec, Gather: st.gather, Put: st.put, Part: part, Attempt: tc.Attempt,
		Step: st.index, Locations: locs,
	})
	if err != nil {
		return nil, err
	}
	if done.UnreachableExec >= 0 {
		// A peer's shuffle server is unreachable after bounded retries:
		// treat the fetch failure as executor loss (the Spark discipline)
		// so its outputs are invalidated and lineage rebuilds them,
		// rather than burning retries against a dead address.
		d.executorGone(done.UnreachableExec, fmt.Sprintf("shuffle server unreachable (reported by executor %d)", tc.Executor))
	}
	if done.Miss {
		// The owner this attempt was sent to does not have the partition.
		// A dead owner's rows are swept by the loss path; a live one has
		// dropped a corrupt spill file, and the driver's row would go on
		// crediting it — the repair would find nothing missing — unless
		// the miss takes the row with it.
		if m := done.MissMapPart; done.MissShuffle == st.gather && m >= 0 && m < len(locs) &&
			d.rt.Shuffle().InvalidatePart(st.gather, m, locs[m].Exec) {
			d.logf("executor %d no longer holds shuffle %d map partition %d; lineage will rebuild it", locs[m].Exec, st.gather, m)
		}
		return nil, &engine.MapOutputMissingError{Shuffle: done.MissShuffle, MapPart: done.MissMapPart}
	}
	if done.Err != "" {
		return nil, errors.New(done.Err)
	}
	if st.put != noShuffle {
		if err := d.rt.Shuffle().PutChunkMetaFrom(st.put, part, tc.Executor, done.BucketBytes); err != nil {
			return nil, err
		}
		tc.AddShuffleRecords(done.Records)
		tc.AddShuffleBytes(float64(done.Bytes))
	}
	if st.gather != noShuffle {
		d.emitFetches(st.gather, part, tc, start, done)
	}
	return done.Result, nil
}

// emitFetches publishes the executor-reported fetch volumes as listener
// events, split by path so traces distinguish zero-copy local reads
// from network shuffle service pulls.
func (d *Driver) emitFetches(id, part int, tc *engine.TaskContext, start time.Time, done *TaskDone) {
	base := engine.FetchEvent{
		Shuffle:    id,
		ReducePart: part,
		TaskID:     tc.TaskID,
		Attempt:    tc.Attempt,
		Executor:   tc.Executor,
		Start:      start,
		Duration:   done.FetchSeconds,
	}
	if done.LocalRecords > 0 || done.LocalBytes > 0 {
		e := base
		e.Records, e.Bytes = done.LocalRecords, float64(done.LocalBytes)
		d.rt.EmitFetch(e)
	}
	if done.RemoteRecords > 0 || done.RemoteBytes > 0 {
		e := base
		e.Records, e.Bytes, e.Remote = done.RemoteRecords, float64(done.RemoteBytes), true
		d.rt.EmitFetch(e)
	}
}

// dropShuffle releases a finished job's shuffle everywhere.
func (d *Driver) dropShuffle(id int) {
	d.rt.Shuffle().Drop(id)
	d.mu.Lock()
	execs := make([]*execConn, 0, len(d.execs))
	for eid, ec := range d.execs {
		if !d.live.Dead(eid) {
			execs = append(execs, ec)
		}
	}
	d.mu.Unlock()
	for _, ec := range execs {
		ec.codec.Send(&DropShuffle{Shuffle: id})
	}
}

// ---- client plane ----

func (d *Driver) acceptClients() {
	for {
		conn, err := d.clientLn.Accept()
		if err != nil {
			return
		}
		go d.handleClient(conn)
	}
}

func (d *Driver) handleClient(conn net.Conn) {
	c := NewCodec(conn, 0)
	defer c.Close()
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		switch msg := m.(type) {
		case *SubmitJob:
			res, err := d.RunJob(msg.Spec)
			out := &JobResult{Result: res}
			if err != nil {
				out.Err = err.Error()
			}
			if err := c.Send(out); err != nil {
				return
			}
		case *ShutdownReq:
			c.Send(&ShutdownAck{})
			d.Shutdown()
			return
		default:
			d.logf("client sent unexpected %T", m)
			return
		}
	}
}

// Submit is the client side of the driver's job plane: dial the client
// address, run one job, return its result bytes.
func Submit(addr string, spec JobSpec) ([]byte, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dist: dial driver %s: %w", addr, err)
	}
	c := NewCodec(conn, 0)
	defer c.Close()
	if err := c.Send(&SubmitJob{Spec: spec}); err != nil {
		return nil, err
	}
	m, err := c.Recv()
	if err != nil {
		return nil, fmt.Errorf("dist: await job result: %w", err)
	}
	res, ok := m.(*JobResult)
	if !ok {
		return nil, fmt.Errorf("dist: expected JobResult, got %T", m)
	}
	if res.Err != "" {
		return nil, errors.New(res.Err)
	}
	return res.Result, nil
}

// ShutdownCluster is the client side of cluster teardown: ask the
// driver at addr to wind the cluster down and wait for its ack.
func ShutdownCluster(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dist: dial driver %s: %w", addr, err)
	}
	c := NewCodec(conn, 0)
	defer c.Close()
	if err := c.Send(&ShutdownReq{}); err != nil {
		return err
	}
	m, err := c.Recv()
	if err != nil {
		return fmt.Errorf("dist: await shutdown ack: %w", err)
	}
	if _, ok := m.(*ShutdownAck); !ok {
		return fmt.Errorf("dist: expected ShutdownAck, got %T", m)
	}
	return nil
}
