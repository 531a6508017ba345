// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver builds the appropriate cluster
// configuration (data-centric or compute-centric), runs the simulated
// jobs, and emits the same rows/series the paper reports, plus computed
// findings (ratios, improvements) for EXPERIMENTS.md.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"hpcmr/internal/cluster"
	"hpcmr/internal/core"
	"hpcmr/internal/dfs"
	"hpcmr/internal/lustre"
	"hpcmr/internal/metrics"
	"hpcmr/internal/storage"
)

// Options scales an experiment run.
type Options struct {
	// Quick shrinks the cluster and data sizes proportionally so the
	// whole suite runs in seconds (for tests/CI). Full scale is the
	// paper's 100-node Hyperion slice.
	Quick bool
	// Seed drives the deterministic node-skew model.
	Seed int64
}

// fullNodes is the paper's worker-node count.
const fullNodes = 100

// Nodes returns the cluster size for these options.
func (o Options) Nodes() int {
	if o.Quick {
		return 20
	}
	return fullNodes
}

// DataScale multiplies the paper's data sizes.
func (o Options) DataScale() float64 {
	if o.Quick {
		return 1.0 / 25
	}
	return 1
}

// resScale scales per-node capacities (caches, clean pools) so that the
// per-node data-to-capacity ratios — which set every crossover point —
// match the full-scale experiment.
func (o Options) resScale() float64 {
	return o.DataScale() / (float64(o.Nodes()) / fullNodes)
}

// Split scales a task split size so quick runs keep the full-scale
// tasks-per-node ratio (waves, scheduler pressure) instead of
// collapsing below one wave.
func (o Options) Split(bytes float64) float64 {
	return bytes * o.resScale()
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Experiment is one reproduced table or figure.
type Experiment struct {
	// ID is the paper label, e.g. "fig7a".
	ID string
	// Title describes the experiment.
	Title string
	// Series holds the figure's lines/bars.
	Series []*metrics.Series
	// Findings are computed headline numbers (ratios, improvements)
	// compared against the paper's claims in EXPERIMENTS.md.
	Findings []string
}

// String renders the experiment as a table plus findings.
func (e *Experiment) String() string {
	out := metrics.Table(fmt.Sprintf("%s — %s", e.ID, e.Title), e.Series...)
	for _, f := range e.Findings {
		out += "  * " + f + "\n"
	}
	return out
}

func (e *Experiment) addFinding(format string, args ...interface{}) {
	e.Findings = append(e.Findings, fmt.Sprintf(format, args...))
}

// WriteCSV emits the experiment's series as CSV: a header of
// x-label,label1,label2,... and one row per x value. Series are aligned
// on the first series' x-axis; shorter series pad with empty cells.
func (e *Experiment) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(e.Series) == 0 {
		cw.Flush()
		return cw.Error()
	}
	header := []string{e.Series[0].XLabel}
	for _, s := range e.Series {
		header = append(header, s.Label)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range e.Series[0].X {
		row := []string{strconv.FormatFloat(e.Series[0].X[i], 'g', -1, 64)}
		for _, s := range e.Series {
			if i < len(s.Y) {
				row = append(row, strconv.FormatFloat(s.Y[i], 'g', -1, 64))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Rig is an assembled simulation environment for one configuration.
type Rig struct {
	Cluster *cluster.Cluster
	Engine  *core.Engine
	HDFS    *dfs.FS
	Lustre  *lustre.FS
}

// RigSpec selects a rig configuration.
type RigSpec struct {
	// Device is the node-local storage kind.
	Device cluster.DeviceKind
	// SkewSigma, when > 0, enables node performance variation with
	// this spread.
	SkewSigma float64
	// FetchRequestBytes overrides the fabric's request granularity
	// (the paper's network-bottleneck scenario shrinks it from 1 GB to
	// 128 KB); zero keeps the default.
	FetchRequestBytes float64
	// WithHDFS mounts the co-located DFS over the RAMDisks.
	WithHDFS bool
	// NodesOverride overrides the cluster size when > 0 (Fig 12 runs at
	// 50/100/150 nodes).
	NodesOverride int
}

// ssdSpec returns the experiment-calibrated SSD model: with the
// write-amplification of ~16 congestion-oblivious concurrent writers,
// the clean-block pool depletes once a node has absorbed roughly 9 GB
// of shuffle writes, matching the sharp drop the paper observes past
// 900 GB of cluster-wide intermediate data.
func ssdSpec(o Options) storage.SSDSpec {
	s := storage.DefaultSSDSpec()
	s.CleanPoolBytes = 10e9 * o.resScale()
	s.GCWindowBytes = 4e9 * o.resScale()
	s.WriteFloorFraction = 0.22
	s.ReadFloorFraction = 0.60
	s.WriteInterference = 0.06
	s.WriteAmplification = 0.08
	return s
}

// NewRig assembles a rig.
func NewRig(o Options, spec RigSpec) *Rig {
	nodes := o.Nodes()
	if spec.NodesOverride > 0 {
		nodes = spec.NodesOverride
		if o.Quick {
			nodes = spec.NodesOverride / 5
			if nodes < 2 {
				nodes = 2
			}
		}
	}
	cfg := cluster.DefaultConfig(nodes)
	cfg.LocalDevice = spec.Device
	// ~6 GB of page cache is free for device I/O beside the 30 GB
	// executor heap and the RAMDisk reservation; this also matches
	// Fig 8(d), where ShuffleMapTask degradation begins roughly half
	// way through the 1.5 TB run's task sequence.
	cfg.PageCacheBytes = 6e9 * o.resScale()
	cfg.RAMDiskBytes = 32e9 * o.resScale()
	cfg.SSD = ssdSpec(o)
	cfg.Seed = o.seed()
	if spec.SkewSigma > 0 {
		cfg.Skew = cluster.SkewConfig{Sigma: spec.SkewSigma, DriftAmplitude: 0.10, DriftPeriod: 600}
	} else {
		cfg.Skew = cluster.SkewConfig{}
	}
	if spec.FetchRequestBytes > 0 {
		cfg.Net.RequestSize = spec.FetchRequestBytes
	}
	c := cluster.New(cfg)

	var hd *dfs.FS
	if spec.WithHDFS {
		dcfg := dfs.DefaultConfig()
		// RAMDisk capacity is scarce (the paper's 1.2 TB ceiling), so
		// the experiment rigs keep single replicas — which also makes
		// block locality a genuinely constrained resource, as the
		// delay-scheduling study requires.
		dcfg.Replication = 1
		devs := c.RAMDisks()
		if spec.Device == cluster.NoLocalDevice {
			panic("experiments: HDFS rig needs a local device")
		}
		if spec.Device == cluster.SSDDevice {
			devs = c.LocalDevices()
		}
		hd = dfs.New(c.Sim, c.Fabric, dcfg, devs)
	}

	lcfg := lustre.DefaultConfig()
	lcfg.AggregateBandwidth = 47e9 * float64(nodes) / fullNodes
	lcfg.ClientCacheBytes = 24e9 * o.resScale()
	lcfg.DirtyLimitBytes = 1.5e9 * o.resScale()
	// Shuffle scratch directories use wide striping — the recommended
	// Lustre setting for many-writer shared scratch — so the shuffle
	// load spreads evenly over the OST pool. Narrow stripes (the
	// per-file default) hot-spot individual OSTs; that behaviour is
	// modeled and tested but not what a tuned deployment runs.
	lcfg.NumOSTs = max(1, 32*nodes/fullNodes)
	lcfg.StripeCount = lcfg.NumOSTs
	lfs := lustre.New(c.Sim, c.Fluid, c.Fabric, lcfg)

	return &Rig{
		Cluster: c,
		Engine:  core.NewEngine(c, hd, lfs),
		HDFS:    hd,
		Lustre:  lfs,
	}
}

// MustRun runs a job on the rig and panics on configuration errors —
// experiment definitions are static, so an error is a programming bug.
func (r *Rig) MustRun(spec core.JobSpec, pol core.Policies) *core.Result {
	res, err := r.Engine.Run(spec, pol)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", spec.Name, err))
	}
	return res
}

// gbSeries creates a series with the standard axes used by most figures.
func gbSeries(label string) *metrics.Series {
	return &metrics.Series{Label: label, XLabel: "data GB", YLabel: "job time s"}
}
