// Package cluster assembles the simulated Hyperion-like machine: compute
// nodes with core slots, node-local storage devices behind a page cache,
// a full-bisection fabric, and a time-varying per-node speed model that
// reproduces the workload-skew-induced performance variation the paper
// observes on a shared production system (Section V-B).
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"hpcmr/internal/netsim"
	"hpcmr/internal/simclock"
	"hpcmr/internal/storage"
)

// DeviceKind selects each node's local storage.
type DeviceKind int

// Local device choices.
const (
	// NoLocalDevice models HPC compute nodes without local persistent
	// storage (intermediate data must go to the parallel FS).
	NoLocalDevice DeviceKind = iota
	// RAMDiskDevice backs local storage with the 32 GB RAMDisk.
	RAMDiskDevice
	// SSDDevice backs local storage with the SATA SSD behind the OS
	// page cache.
	SSDDevice
)

func (k DeviceKind) String() string {
	switch k {
	case RAMDiskDevice:
		return "ramdisk"
	case SSDDevice:
		return "ssd"
	default:
		return "none"
	}
}

// SkewConfig parameterizes node performance variation: a seeded static
// lognormal spread plus a slow sinusoidal drift, modeling the workload
// skew over time on shared compute nodes.
type SkewConfig struct {
	// Sigma is the lognormal spread of the static per-node speed factor
	// (0 = homogeneous).
	Sigma float64
	// DriftAmplitude is the relative amplitude of the temporal drift.
	DriftAmplitude float64
	// DriftPeriod is the drift period in seconds.
	DriftPeriod float64
}

// Config describes the simulated cluster.
type Config struct {
	Nodes        int
	CoresPerNode int
	// SparkMemoryBytes is the executor memory per node (30 GB).
	SparkMemoryBytes float64
	// PageCacheBytes is the OS page cache available per node for local
	// device I/O.
	PageCacheBytes float64
	// RAMDiskBytes is the RAMDisk reservation per node (32 GB).
	RAMDiskBytes float64
	// LocalDevice selects the node-local storage.
	LocalDevice DeviceKind
	// SSD parameterizes the SSD model when LocalDevice == SSDDevice.
	SSD storage.SSDSpec
	// Net parameterizes the fabric; Nodes is overridden.
	Net netsim.Config
	// Skew is the node performance variation model.
	Skew SkewConfig
	// DispatchOverhead is the centralized scheduler's per-task dispatch
	// cost in seconds (serialized at the master).
	DispatchOverhead float64
	// Seed drives the deterministic skew model.
	Seed int64
}

// DefaultConfig returns the Hyperion-like setup from the paper's
// methodology section: 100 worker nodes, 16 cores, 30 GB Spark memory,
// 32 GB RAMDisk, SATA SSD, IB QDR fabric.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:            nodes,
		CoresPerNode:     16,
		SparkMemoryBytes: 30e9,
		PageCacheBytes:   8e9,
		RAMDiskBytes:     32e9,
		LocalDevice:      RAMDiskDevice,
		SSD:              storage.DefaultSSDSpec(),
		Net:              netsim.DefaultConfig(nodes),
		Skew:             SkewConfig{Sigma: 0.18, DriftAmplitude: 0.10, DriftPeriod: 600},
		DispatchOverhead: 0.3e-3,
		Seed:             1,
	}
}

// Node is one simulated compute node.
type Node struct {
	ID    int
	Cores int
	// Local is the node's local storage path for intermediate data
	// (nil when the cluster has no local device).
	Local storage.Device
	// RAMDisk is the raw RAMDisk (also the HDFS DataNode device on the
	// data-centric configuration); nil when not configured.
	RAMDisk *storage.RAMDisk
	// SSD is the raw SSD beneath the page cache, when configured.
	SSD *storage.SSD

	speed  float64
	drift  float64
	phase  float64
	period float64
	down   bool
}

// Cluster is the assembled machine.
type Cluster struct {
	Sim    *simclock.Sim
	Fluid  *simclock.Fluid
	Fabric *netsim.Fabric
	Nodes  []*Node
	Master *simclock.Server
	cfg    Config
}

// New builds a cluster (and its own Sim/Fluid kernel) from cfg.
func New(cfg Config) *Cluster {
	if cfg.Nodes < 1 {
		panic("cluster: need at least one node")
	}
	if cfg.CoresPerNode < 1 {
		cfg.CoresPerNode = 1
	}
	sim := simclock.New()
	fluid := simclock.NewFluid(sim)
	ncfg := cfg.Net
	ncfg.Nodes = cfg.Nodes
	fabric := netsim.New(sim, fluid, ncfg)

	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Cluster{
		Sim:    sim,
		Fluid:  fluid,
		Fabric: fabric,
		Master: simclock.NewServer(sim),
		cfg:    cfg,
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			ID:     i,
			Cores:  cfg.CoresPerNode,
			speed:  math.Exp(rng.NormFloat64() * cfg.Skew.Sigma),
			drift:  cfg.Skew.DriftAmplitude,
			phase:  rng.Float64() * 2 * math.Pi,
			period: cfg.Skew.DriftPeriod,
		}
		switch cfg.LocalDevice {
		case RAMDiskDevice:
			n.RAMDisk = storage.NewRAMDisk(fluid, fmt.Sprintf("n%d/ramdisk", i), cfg.RAMDiskBytes)
			n.Local = n.RAMDisk
		case SSDDevice:
			n.SSD = storage.NewSSD(fluid, fmt.Sprintf("n%d/ssd", i), cfg.SSD)
			n.Local = storage.NewWriteBackCache(sim, fluid, n.SSD, cfg.PageCacheBytes)
			// The RAMDisk reservation still exists on the node (the
			// methodology reserves it) but is not the local path.
			n.RAMDisk = storage.NewRAMDisk(fluid, fmt.Sprintf("n%d/ramdisk", i), cfg.RAMDiskBytes)
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Speed returns node n's speed factor at virtual time t: static spread
// times slow drift, always positive.
func (n *Node) Speed(t float64) float64 {
	s := n.speed
	if n.drift > 0 && n.period > 0 {
		s *= 1 + n.drift*math.Sin(2*math.Pi*t/n.period+n.phase)
	}
	if s < 0.05 {
		s = 0.05
	}
	return s
}

// Alive reports whether the node is still part of the cluster.
func (n *Node) Alive() bool { return !n.down }

// Fail permanently removes the node: it stops accepting task launches.
// Work already dispatched to it is the scheduler's problem (see
// sched.Stage.NodeLost).
func (n *Node) Fail() { n.down = true }

// LocalDevices returns the per-node local devices as a slice usable by
// the DFS layer; entries are nil when the cluster has no local device.
func (c *Cluster) LocalDevices() []storage.Device {
	devs := make([]storage.Device, len(c.Nodes))
	for i, n := range c.Nodes {
		devs[i] = n.Local
	}
	return devs
}

// RAMDisks returns the per-node RAMDisk devices (for the data-centric
// HDFS-on-RAMDisk configuration).
func (c *Cluster) RAMDisks() []storage.Device {
	devs := make([]storage.Device, len(c.Nodes))
	for i, n := range c.Nodes {
		if n.RAMDisk != nil {
			devs[i] = n.RAMDisk
		}
	}
	return devs
}

// Dispatch charges the centralized scheduler's per-task dispatch cost
// and calls launched when the master has processed the dispatch.
func (c *Cluster) Dispatch(launched func()) {
	if c.cfg.DispatchOverhead <= 0 {
		c.Sim.After(0, launched)
		return
	}
	c.Master.Submit(c.cfg.DispatchOverhead, launched)
}
