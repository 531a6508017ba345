// Package sim is the public facade over the cluster simulator: it
// builds a Hyperion-like simulated machine (compute nodes, InfiniBand
// fabric, Lustre, HDFS-like co-located storage, RAMDisk/SSD devices)
// and runs the paper's MapReduce workloads on it under a selectable
// scheduling policy.
//
// It exists so that downstream users of this module — who cannot import
// internal packages — can reproduce and extend the paper's
// characterization programmatically, and it is the one place that turns
// machine and job choices into a simulated run: mrsim, the simstudy
// example and the chaos harness all build through it.
//
//	c, _ := sim.New(sim.Config{Nodes: 100, Device: sim.SSD, Skew: true})
//	res, _ := c.Run(sim.Job{
//	    Benchmark:  sim.GroupBy,
//	    InputBytes: 1.2e12,
//	    CAD:        true,
//	})
//	fmt.Println(res.JobTime, res.Dissection.Storing)
package sim

import (
	"fmt"

	"hpcmr/fault"
	"hpcmr/internal/cluster"
	"hpcmr/internal/core"
	"hpcmr/internal/dfs"
	"hpcmr/internal/lustre"
	"hpcmr/internal/metrics"
	"hpcmr/internal/sched"
	"hpcmr/internal/workload"
	"hpcmr/trace"
)

// Device selects the node-local storage of the simulated cluster.
type Device string

// Local device choices.
const (
	// RAMDisk backs node-local storage with the 32 GB RAM reservation
	// (the paper's data-centric configuration).
	RAMDisk Device = "ramdisk"
	// SSD backs node-local storage with the SATA SSD behind the OS page
	// cache.
	SSD Device = "ssd"
	// NoDevice models HPC compute nodes without local persistent
	// storage: intermediate data must use the parallel file system.
	NoDevice Device = "none"
)

// Benchmark selects one of the paper's workloads.
type Benchmark string

// Workloads.
const (
	// GroupBy is the shuffle benchmark: intermediate == input.
	GroupBy Benchmark = "groupby"
	// Grep is the scan benchmark with tiny intermediate data.
	Grep Benchmark = "grep"
	// LR is three iterations of logistic regression with the input
	// cached after the first.
	LR Benchmark = "lr"
)

// Input selects where a job reads its input.
type Input string

// Input sources. The zero value is the benchmark's own: generated for
// GroupBy, HDFS for Grep and LR.
const (
	// Generated synthesizes records in memory.
	Generated Input = "generated"
	// HDFS reads from the co-located DFS over the node-local devices.
	HDFS Input = "hdfs"
	// Lustre reads from the shared parallel file system.
	Lustre Input = "lustre"
)

// Store selects where a job's intermediate (shuffle) data lives.
type Store string

// Intermediate stores. The zero value is the workload's own: the
// node-local device for GroupBy and Grep, none for LR.
const (
	// LustreLocal writes to Lustre; the writer node serves fetches from
	// its client cache (Fig 6 left).
	LustreLocal Store = "lustre-local"
	// LustreShared writes to Lustre; fetchers read the remote-written
	// files directly, revoking the writers' locks (Fig 6 right).
	LustreShared Store = "lustre-shared"
	// NoStore skips the storing and shuffle phases.
	NoStore Store = "none"
)

// Policy selects the map-phase scheduling policy.
type Policy string

// Policies.
const (
	// FIFO launches tasks immediately on any free slot.
	FIFO Policy = "fifo"
	// Locality prefers local tasks but never waits.
	Locality Policy = "locality"
	// DelayScheduling waits for locality (Spark's default).
	DelayScheduling Policy = "delay"
	// ELB is the paper's Enhanced Load Balancer.
	ELB Policy = "elb"
)

// Config describes the simulated cluster.
type Config struct {
	// Nodes is the number of worker nodes (default 100, the paper's
	// Hyperion slice).
	Nodes int
	// CoresPerNode defaults to 16.
	CoresPerNode int
	// Device is the node-local storage (default RAMDisk). A cluster
	// with a device mounts the co-located DFS over it, which HDFS-input
	// jobs read; NoDevice mounts none.
	Device Device
	// Skew enables node performance variation.
	Skew bool
	// Seed drives the deterministic skew model (default 1).
	Seed int64
}

// Job describes one simulated MapReduce job.
type Job struct {
	// Benchmark selects the workload (default GroupBy).
	Benchmark Benchmark
	// InputBytes is the input size (default 100 GB).
	InputBytes float64
	// SplitBytes is the per-task split (default 256 MB).
	SplitBytes float64
	// Input is the input source (default: the benchmark's own).
	Input Input
	// Store is the intermediate store (default: the workload's own).
	Store Store
	// Policy is the map-phase scheduling policy (default FIFO).
	Policy Policy
	// CAD enables Congestion-Aware Dispatching for the storing phase.
	CAD bool
}

// Dissection is a per-phase breakdown of execution time in seconds;
// it prints as "compute=… storing=… shuffle=… total=…".
type Dissection = metrics.Dissection

// Summary holds the order statistics (N, Min, Mean, Max, …) of a
// sample.
type Summary = metrics.Summary

// Result summarizes a simulated job.
type Result struct {
	// Name is the workload's name ("GroupBy", "Grep" or "LR").
	Name string
	// Input and Store name the input source and intermediate store the
	// job ran with once the zero values resolved; Store "local" is the
	// node-local device.
	Input, Store string
	// JobTime is the virtual execution time in seconds.
	JobTime float64
	// Dissection is the per-phase breakdown summed over iterations.
	Dissection Dissection
	// Iters breaks the job down per iteration.
	Iters []Iteration
	// MapTasks is the number of map tasks executed.
	MapTasks int
	// LocalLaunches counts locality-satisfying map launches.
	LocalLaunches int
	// PerNodeIntermediate is the intermediate bytes per node.
	PerNodeIntermediate []float64
	// StoringTasks summarizes the first iteration's ShuffleMapTask
	// durations; N is 0 when the job stored nothing.
	StoringTasks Summary
	// StoringTaskSpread is max/min ShuffleMapTask duration.
	StoringTaskSpread float64
}

// Iteration is one iteration of a job.
type Iteration struct {
	// Dissection is the iteration's per-phase breakdown.
	Dissection Dissection
	// MapTasks, LocalLaunches and RemoteLaunches count the iteration's
	// map tasks and how many launched on a node holding their input.
	MapTasks, LocalLaunches, RemoteLaunches int
}

// Cluster is a simulated machine ready to run jobs. Jobs run
// sequentially and share device state (caches drain between jobs);
// build a fresh Cluster for independent trials.
type Cluster struct {
	eng   *core.Engine
	nodes int
}

// New builds a simulated cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 100
	}
	ccfg := cluster.DefaultConfig(cfg.Nodes)
	if cfg.CoresPerNode > 0 {
		ccfg.CoresPerNode = cfg.CoresPerNode
	}
	switch cfg.Device {
	case RAMDisk, "":
		ccfg.LocalDevice = cluster.RAMDiskDevice
	case SSD:
		ccfg.LocalDevice = cluster.SSDDevice
	case NoDevice:
		ccfg.LocalDevice = cluster.NoLocalDevice
	default:
		return nil, fmt.Errorf("sim: unknown device %q", cfg.Device)
	}
	if cfg.Seed != 0 {
		ccfg.Seed = cfg.Seed
	}
	if !cfg.Skew {
		ccfg.Skew = cluster.SkewConfig{}
	}
	c := cluster.New(ccfg)

	var hd *dfs.FS
	if ccfg.LocalDevice != cluster.NoLocalDevice {
		devs := c.RAMDisks()
		if ccfg.LocalDevice == cluster.SSDDevice {
			devs = c.LocalDevices()
		}
		dcfg := dfs.DefaultConfig()
		dcfg.Replication = 1
		hd = dfs.New(c.Sim, c.Fabric, dcfg, devs)
	}
	lcfg := lustre.DefaultConfig()
	lcfg.AggregateBandwidth = 47e9 * float64(cfg.Nodes) / 100
	lfs := lustre.New(c.Sim, c.Fluid, c.Fabric, lcfg)

	return &Cluster{eng: core.NewEngine(c, hd, lfs), nodes: cfg.Nodes}, nil
}

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return c.nodes }

// InjectFaults arms a deterministic fault plan for the jobs this cluster
// runs. Call it before Run; the same plan on a fresh identically
// configured cluster replays the exact same virtual-time schedule. The
// plan must validate.
func (c *Cluster) InjectFaults(p fault.Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.eng.Faults = fault.NewInjector(p)
	return nil
}

// Trace attaches a tracer on the cluster's virtual clock and returns it;
// subsequent jobs record job/stage/task/fetch spans, the ELB, CAD and
// delay-scheduling decisions, and injected-fault events into it.
// Tracing never perturbs simulated time.
func (c *Cluster) Trace() *trace.Tracer {
	t := trace.New(c.eng.C.Sim.Now)
	c.eng.Tracer = t
	return t
}

// Run simulates one job to completion.
func (c *Cluster) Run(job Job) (*Result, error) {
	if job.InputBytes <= 0 {
		job.InputBytes = 100e9
	}
	if job.SplitBytes <= 0 {
		job.SplitBytes = 256e6
	}

	var spec core.JobSpec
	switch job.Benchmark {
	case GroupBy, "":
		spec = workload.GroupBy(job.InputBytes, job.SplitBytes)
	case Grep:
		spec = workload.Grep(job.InputBytes, job.SplitBytes, core.InputHDFS)
	case LR:
		spec = workload.LogisticRegression(job.InputBytes, job.SplitBytes, core.InputHDFS)
	default:
		return nil, fmt.Errorf("sim: unknown benchmark %q", job.Benchmark)
	}
	switch job.Input {
	case "":
	case Generated:
		spec.Input = core.InputGenerated
	case HDFS:
		spec.Input = core.InputHDFS
	case Lustre:
		spec.Input = core.InputLustre
	default:
		return nil, fmt.Errorf("sim: unknown input %q", job.Input)
	}
	switch job.Store {
	case "":
	case LustreLocal:
		spec.Store = core.StoreLustreLocal
	case LustreShared:
		spec.Store = core.StoreLustreShared
	case NoStore:
		spec.Store = core.StoreNone
	default:
		return nil, fmt.Errorf("sim: unknown store %q", job.Store)
	}

	audit := trace.SchedAudit(c.eng.Tracer)
	pol := core.Policies{}
	switch job.Policy {
	case FIFO, "":
	case Locality:
		pol.Map = sched.NewLocalityPreferring()
	case DelayScheduling:
		d := sched.NewDelay(sched.SparkLocalityWait)
		d.Audit = audit
		pol.Map = d
	case ELB:
		e := sched.NewELB(c.nodes, sched.ELBThreshold)
		e.Audit = audit
		pol.Map = e
	default:
		return nil, fmt.Errorf("sim: unknown policy %q", job.Policy)
	}
	if job.CAD {
		cd := sched.NewCAD(sched.NewPinned())
		cd.Audit = audit
		pol.Store = cd
	}

	res, err := c.eng.Run(spec, pol)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Name:                spec.Name,
		Input:               spec.Input.String(),
		Store:               spec.Store.String(),
		JobTime:             res.JobTime,
		Dissection:          res.Dissection(),
		PerNodeIntermediate: res.PerNodeIntermediate(),
	}
	for i := range res.Iters {
		it := &res.Iters[i]
		out.Iters = append(out.Iters, Iteration{
			Dissection:     it.Dissection(),
			MapTasks:       len(it.Map.Timeline.Records),
			LocalLaunches:  it.LocalLaunches,
			RemoteLaunches: it.RemoteLaunches,
		})
		out.MapTasks += len(it.Map.Timeline.Records)
		out.LocalLaunches += it.LocalLaunches
	}
	if len(res.Iters) > 0 {
		if tl := &res.Iters[0].Store.Timeline; len(tl.Records) > 0 {
			out.StoringTasks = metrics.Summarize(tl.Durations())
			out.StoringTaskSpread = tl.Spread()
		}
	}
	return out, nil
}

// Summary formats a result as one line.
func (r *Result) Summary() string {
	return fmt.Sprintf("job=%.2fs compute=%.2fs storing=%.2fs shuffle=%.2fs tasks=%d",
		r.JobTime, r.Dissection.Compute, r.Dissection.Storing, r.Dissection.Shuffle, r.MapTasks)
}

// IntermediateSummary summarizes the per-node intermediate bytes.
func (r *Result) IntermediateSummary() Summary {
	return metrics.Summarize(r.PerNodeIntermediate)
}

// ImbalanceRatio returns max/mean per-node intermediate data — the
// Fig 12 straggler indicator.
func (r *Result) ImbalanceRatio() float64 {
	s := r.IntermediateSummary()
	if s.Mean == 0 {
		return 0
	}
	return s.Max / s.Mean
}
