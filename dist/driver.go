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

// DriverConfig configures the cluster driver.
type DriverConfig struct {
	// Executors is the cluster size the driver waits for.
	Executors int
	// CoresPerExecutor is how many tasks each executor runs at once
	// (default 2).
	CoresPerExecutor int
	// ControlAddr/ClientAddr are the listen addresses; "" picks an
	// ephemeral loopback port.
	ControlAddr, ClientAddr string
	// Plan is the fault plan. The driver's engine decides crashes, hangs
	// and injected task failures as for any attempt, and a crash becomes
	// a real executor kill (via Killer); slow windows and fetch loss act
	// on the executor itself, so they ship in the HelloAck and replay
	// in-process.
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

	goneMu sync.Mutex     // orders ownership invalidation before the dead mark
	kills  sync.WaitGroup // crash-plan kills still running; Shutdown waits

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
	if cfg.CoresPerExecutor <= 0 {
		cfg.CoresPerExecutor = 2
	}
	d := &Driver{
		cfg:     cfg,
		live:    newLiveness(heartbeatTimeout),
		execs:   make(map[int]*execConn),
		pending: make(map[uint64]*pendingTask),
		ready:   make(chan struct{}),
		done:    make(chan struct{}),
	}

	// Every task body is a proxy waiting on an executor, so the engine
	// keeps a window of attempts queued on each executor's cores.
	ecfg := engine.Config{Executors: cfg.Executors, CoresPerExecutor: cfg.CoresPerExecutor, RemoteBodies: true}
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
		decided := cfg.Plan.Filter(fault.KindCrash, fault.KindHang, fault.KindTaskFail)
		if len(decided.Events) > 0 {
			ecfg.Faults = &killInjector{Injector: fault.NewInjector(decided), d: d}
		}
		transient := cfg.Plan.Filter(fault.KindSlow, fault.KindFetchLoss)
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
	d.kills.Wait()
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
	if hello.WireLayout != wireLayout {
		// Refused before it counts as registered: the executor never
		// joins, so a permanent mismatch cannot become a loss to recover.
		reject(fmt.Sprintf("wire slab layout %#x differs from the driver's %#x (byte order or chunk types)", hello.WireLayout, wireLayout))
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
	if err := c.Send(&HelloAck{OK: true, Executors: d.cfg.Executors, Cores: d.cfg.CoresPerExecutor, TransientPlan: d.transientPlan}); err != nil {
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
	t := time.NewTicker(heartbeatCheck)
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
// a dead owner as a missing map output and the rewind re-runs what
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
// itself once the injector returns; whichever runs second is a no-op.
func (d *Driver) killExecutor(id int) {
	d.logf("fault plan: killing executor %d", id)
	if d.cfg.Killer != nil {
		d.cfg.Killer(id)
	}
	d.executorGone(id, "crash plan")
}

// killInjector is the engine's injector over the driver's share of the
// plan (crash, hang, task-fail), whose crash triggers also kill the
// executor for real. The kill runs on its own goroutine, which Shutdown
// waits for: a stage asks for count-triggered crashes under its lock,
// and the loss path (executorGone → FailExecutor) takes that lock.
type killInjector struct {
	*fault.Injector
	d *Driver
}

func (k *killInjector) TimeCrashes(now float64) []int {
	return k.kill(k.Injector.TimeCrashes(now))
}

func (k *killInjector) TaskCompleted(now float64) []int {
	return k.kill(k.Injector.TaskCompleted(now))
}

func (k *killInjector) kill(execs []int) []int {
	for _, e := range execs {
		k.d.kills.Add(1)
		go func() {
			defer k.d.kills.Done()
			k.d.killExecutor(e)
		}()
	}
	return execs
}

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
		// burning its retry budget. After Shutdown (a hung attempt may wake
		// that late) it only means the driver closed it.
		if !d.shuttingDown() {
			d.executorGone(exec, fmt.Sprintf("dispatch write failed: %v", err))
		}
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
// function is the chain of length one.
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
	defer func() {
		for _, id := range gens {
			d.dropShuffle(id)
		}
	}()
	d.logf("job %s: steps=%d mapParts=%d reduceParts=%d", spec.Job, steps, spec.MapParts, spec.ReduceParts)
	results, err := d.runChain(spec, gens, 0)
	if err != nil {
		return nil, err
	}
	return job.Merge(spec, results)
}

// runChain walks the chain from stage from through the reduce, whose
// encoded outputs it returns by partition. Stage 0 is the map stage,
// stages 1..len(gens)-1 the supersteps, stage len(gens) the reduce.
//
// The walk holds a rolling window of two generations: generation g-1
// is released — on the driver and on every live executor — as soon as
// stage g has completed, before stage g+1 starts, and the last one goes
// after the reduce. Stage g therefore finds exactly the generation it
// gathers and the one it writes resident.
//
// A stage that reports a missing map output rewinds the walk, which is
// how a lost generation is rebuilt from lineage. It resumes at the
// stage above the newest generation below g that is still complete, or
// at the map stage, which recomputes from the spec alone. A rewind
// below g releases the generation stage g was writing, since it will
// be written again in full; a resumed stage whose generation is still
// registered re-runs only its missing partitions. A loss late in a
// long chain therefore re-runs every superstep below it: a SIGKILL in
// superstep 6 of 8 re-runs 50-58 tasks where retaining every
// generation re-ran 20, at the same wall time on a 2-vCPU host (DESIGN
// §7) — the cost, paid only after a loss, of holding two generations
// instead of all of them.
//
// The rewind needs no wait. The loss path invalidates a dead
// executor's outputs before it marks the executor dead, and a miss
// from a live owner drops that owner's row (runTask), so the store
// already shows every loss a task can report; a miss it does not show
// means the partition changed owner after dispatch, and the immediate
// re-run recomputes its locations. At most engine.MaxJobRecoveries
// rewinds are taken per job.
func (d *Driver) runChain(spec JobSpec, gens []int, from int) ([][]byte, error) {
	rewinds := 0
	for g := from; ; {
		results, err := d.runStage(spec, gens, g)
		if err == nil {
			if g > 0 {
				d.dropShuffle(gens[g-1])
			}
			if g == len(gens) {
				return results, nil
			}
			g++
			continue
		}
		var miss *engine.MapOutputMissingError
		if !errors.As(err, &miss) {
			return nil, err
		}
		if rewinds == engine.MaxJobRecoveries {
			return nil, fmt.Errorf("dist: job %s still missing map output after %d lineage rewinds (engine.MaxJobRecoveries): %w", spec.Job, engine.MaxJobRecoveries, err)
		}
		rewinds++
		d.logf("stage %d of job %s missing shuffle %d map partition %d; repairing generation chain", g, spec.Job, miss.Shuffle, miss.MapPart)
		base := g - 1
		for base >= 0 && !d.rt.Shuffle().Complete(gens[base]) {
			base--
		}
		if base+1 < g {
			if g < len(gens) {
				d.dropShuffle(gens[g])
			}
			d.logf("job %s: rebuilding generations %d..%d from generation %d (-1: the map inputs)", spec.Job, base+1, g-1, base)
		}
		g = base + 1
	}
}

// runStage runs chain stage g once. The generation the stage writes is
// registered when the stage starts — and registered afresh, under a new
// ID, when it is not registered any more. The reduce runs every
// partition; any other stage runs the partitions its generation lacks,
// which for a generation just registered is all of them. A stage that
// gathers prefers, per partition, the executors owning most of the
// gathered generation (Runtime.ReducePreferences), so under the
// shuffle-locality policy a bucket stays where its data already is and
// the fetch phase is the executor-local zero-copy path. The reduce
// stage returns its tasks' encoded outputs by partition — RunStage
// returning nil means every task succeeded, so an empty output is a
// result, not a task that never ran; every other stage returns nil.
func (d *Driver) runStage(spec JobSpec, gens []int, g int) ([][]byte, error) {
	st := d.chainStage(spec, gens, g)
	var parts []int
	var results [][]byte
	if g == len(gens) {
		results, parts = make([][]byte, spec.ReduceParts), allParts(spec.ReduceParts)
	} else {
		parts = d.rt.Shuffle().MissingParts(gens[g])
	}
	var prefs [][]int
	if st.gather != noShuffle {
		prefs = d.rt.ReducePreferences([]int{st.gather}, spec.ReduceParts)
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
	if err := d.rt.RunStage(st.name, tasks); err != nil {
		return nil, err
	}
	return results, nil
}

// allParts is the partition list 0..n-1: a whole stage.
func allParts(n int) []int {
	parts := make([]int, n)
	for i := range parts {
		parts[i] = i
	}
	return parts
}

// stage is one link of a job's chain as its tasks see it: its position
// and the generations it gathers and puts, which also say which job
// function its tasks call.
type stage struct {
	name   string
	index  int
	gather int
	put    int
}

// chainStage builds stage g of the chain from the generations as they
// are now, registering the one it writes if that is not registered.
func (d *Driver) chainStage(spec JobSpec, gens []int, g int) stage {
	st := stage{index: g}
	if g < len(gens) && d.rt.Shuffle().Owners(gens[g]) == nil {
		gens[g] = d.rt.Shuffle().Register(spec.stageParts(g), spec.ReduceParts)
	}
	switch {
	case g == 0:
		st.put = gens[0]
		st.name = fmt.Sprintf("%s-map-%d", spec.Job, st.put)
	case g == len(gens):
		st.gather = gens[g-1]
		st.name = fmt.Sprintf("%s-reduce-%d", spec.Job, st.gather)
	default:
		st.gather, st.put = gens[g-1], gens[g]
		st.name = fmt.Sprintf("%s-step%d-%d", spec.Job, g, st.put)
	}
	return st
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
		if owners == nil {
			// Released, or never registered: every partition is missing,
			// and a gather with no locations would compute from nothing.
			return nil, &engine.MapOutputMissingError{Shuffle: st.gather, MapPart: 0}
		}
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
		Spec: spec, Gather: st.gather, Put: st.put, Part: part, Attempt: tc.Attempt,
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
		// crediting it — the rewind would find nothing missing — unless
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
		d.rt.EmitFetch(engine.FetchEvent{
			Shuffle:    st.gather,
			ReducePart: part,
			TaskID:     tc.TaskID,
			Attempt:    tc.Attempt,
			Executor:   tc.Executor,
			Start:      start,
			Duration:   done.FetchSeconds,
		}, done.LocalRecords, done.LocalBytes, done.RemoteRecords, done.RemoteBytes)
	}
	return done.Result, nil
}

// dropShuffle releases a shuffle on the driver and every live
// executor; one not (or no longer) registered is left alone. An
// executor applies the drop before any task dispatched after it.
func (d *Driver) dropShuffle(id int) {
	if !d.rt.Shuffle().Drop(id) {
		return
	}
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
