package experiments

import (
	"hpcmr/internal/cluster"
	"hpcmr/internal/core"
	"hpcmr/internal/metrics"
	"hpcmr/internal/sched"
	"hpcmr/internal/storage"
	"hpcmr/internal/workload"
)

// AblationELBThreshold sweeps ELB's pause threshold on the Fig 13(a)
// scenario: too tight a threshold forfeits locality/pipelining for no
// balance gain, too loose never pauses anyone. The paper fixes 25%
// without justification; this quantifies the neighborhood.
func AblationELBThreshold(o Options) *Experiment {
	e := &Experiment{
		ID:    "ablation-elb",
		Title: "ELB pause-threshold sweep (paper fixes 25%)",
	}
	s := &metrics.Series{Label: "storing+shuffle", XLabel: "threshold %", YLabel: "s"}
	size := 1200 * workload.GB * o.DataScale()
	rigSpec := RigSpec{Device: cluster.SSDDevice, SkewSigma: 0.22}
	base := runELB(o, rigSpec, size, groupBySplit, false)
	db := base.Dissection()
	var best float64
	for _, th := range []float64{0.10, sched.ELBThreshold, 0.50, 1.00} {
		rig := NewRig(o, rigSpec)
		res := rig.MustRun(workload.GroupBy(size, o.Split(groupBySplit)), core.Policies{
			Map: sched.NewELB(len(rig.Cluster.Nodes), th),
		})
		d := res.Dissection()
		s.Add(100*th, d.Storing+d.Shuffle)
		if best == 0 || d.Storing+d.Shuffle < best {
			best = d.Storing + d.Shuffle
		}
	}
	e.Series = []*metrics.Series{s}
	e.addFinding("baseline (no ELB): %.1f s; best threshold: %.1f s (%.1f%% better)",
		db.Storing+db.Shuffle, best, 100*metrics.Improvement(db.Storing+db.Shuffle, best))
	return e
}

// AblationCADMechanism isolates what CAD's benefit rests on: with
// concurrency-driven write amplification disabled in the SSD model,
// throttled dispatch loses most of its value — the congestion CAD
// exploits is the amplification-driven clean-pool burn.
func AblationCADMechanism(o Options) *Experiment {
	e := &Experiment{
		ID:    "ablation-cad",
		Title: "CAD benefit with and without SSD write amplification",
	}
	size := 1500 * workload.GB * o.DataScale()
	run := func(amplify, cad bool) float64 {
		rig := newSSDVariantRig(o, amplify)
		pol := core.Policies{}
		if cad {
			pol.Store = sched.NewCAD(sched.NewPinned())
		}
		res := rig.MustRun(workload.GroupBy(size, o.Split(groupBySplit)), pol)
		return res.Dissection().Storing
	}
	s := &metrics.Series{Label: "storing", XLabel: "variant#", YLabel: "s"}
	ampBase := run(true, false)
	ampCAD := run(true, true)
	flatBase := run(false, false)
	flatCAD := run(false, true)
	s.Add(1, ampBase)
	s.Add(2, ampCAD)
	s.Add(3, flatBase)
	s.Add(4, flatCAD)
	e.Series = []*metrics.Series{s}
	e.addFinding("with amplification: CAD improves storing by %.1f%%",
		100*metrics.Improvement(ampBase, ampCAD))
	e.addFinding("without amplification: CAD changes storing by %.1f%% (mechanism ablated)",
		100*metrics.Improvement(flatBase, flatCAD))
	return e
}

// newSSDVariantRig builds an SSD rig with write amplification on or off.
func newSSDVariantRig(o Options, amplify bool) *Rig {
	cfg := cluster.DefaultConfig(o.Nodes())
	cfg.LocalDevice = cluster.SSDDevice
	cfg.PageCacheBytes = 6e9 * o.resScale()
	cfg.RAMDiskBytes = 32e9 * o.resScale()
	cfg.SSD = ssdSpec(o)
	if !amplify {
		cfg.SSD.WriteAmplification = 0
	}
	cfg.Skew = cluster.SkewConfig{}
	cfg.Seed = o.seed()
	c := cluster.New(cfg)
	return &Rig{Cluster: c, Engine: core.NewEngine(c, nil, nil)}
}

// AblationLocalityWait sweeps the delay-scheduling wait on the Fig 9
// Grep scenario: zero is the no-wait locality policy, Spark's default is
// 3 s, and longer waits only deepen the idle windows.
func AblationLocalityWait(o Options) *Experiment {
	e := &Experiment{
		ID:    "ablation-wait",
		Title: "Delay-scheduling locality-wait sweep (Spark default: 3 s)",
	}
	s := &metrics.Series{Label: "grep job", XLabel: "wait s", YLabel: "s"}
	sz := fig9Input * o.DataScale()
	spec := workload.Grep(sz, o.Split(32*workload.MB), core.InputHDFS)
	for _, wait := range []float64{0, 1, sched.SparkLocalityWait, 5, 10} {
		var pol sched.Policy
		if wait == 0 {
			pol = sched.NewLocalityPreferring()
		} else {
			pol = sched.NewDelay(wait)
		}
		res := runHDFSWithPolicy(o, spec, pol)
		s.Add(wait, res.JobTime)
	}
	e.Series = []*metrics.Series{s}
	e.addFinding("degradation at 3 s vs no wait: %.1f%%; at 10 s: %.1f%%",
		100*(s.Y[2]/s.Y[0]-1), 100*(s.Y[4]/s.Y[0]-1))
	return e
}

// AblationFetchSize sweeps the FetchRequest granularity between the
// paper's two operating points (1 GB default, 128 KB bottleneck) to
// show where the network-bottleneck regime begins.
func AblationFetchSize(o Options) *Experiment {
	e := &Experiment{
		ID:    "ablation-fetch",
		Title: "FetchRequest size sweep (paper operates at 1 GB and 128 KiB)",
	}
	s := &metrics.Series{Label: "shuffle", XLabel: "request MB", YLabel: "s"}
	size := 800 * workload.GB * o.DataScale()
	for _, req := range []float64{128 * 1024, 1e6, 8e6, 64e6, 1 << 30} {
		rig := NewRig(o, RigSpec{Device: cluster.RAMDiskDevice, FetchRequestBytes: req})
		res := rig.MustRun(workload.GroupBy(size, o.Split(groupBySplit)), core.Policies{})
		s.Add(req/1e6, res.Dissection().Shuffle)
	}
	e.Series = []*metrics.Series{s}
	e.addFinding("128 KiB shuffle is %.1fx the 1 GB shuffle", metrics.Ratio(s.Y[0], s.Y[len(s.Y)-1]))
	return e
}

// AblationSSDFloor sweeps the SSD garbage-collection floor to show how
// device quality moves the Fig 8 crossover.
func AblationSSDFloor(o Options) *Experiment {
	e := &Experiment{
		ID:    "ablation-ssdfloor",
		Title: "SSD GC floor sweep: device quality vs the Fig 8 crossover",
	}
	s := &metrics.Series{Label: "job@1.5TB", XLabel: "floor fraction", YLabel: "s"}
	size := 1500 * workload.GB * o.DataScale()
	for _, floor := range []float64{0.1, 0.22, 0.4, 0.6} {
		cfg := cluster.DefaultConfig(o.Nodes())
		cfg.LocalDevice = cluster.SSDDevice
		cfg.PageCacheBytes = 6e9 * o.resScale()
		spec := ssdSpec(o)
		spec.WriteFloorFraction = floor
		cfg.SSD = spec
		cfg.Skew = cluster.SkewConfig{}
		cfg.Seed = o.seed()
		c := cluster.New(cfg)
		rig := &Rig{Cluster: c, Engine: core.NewEngine(c, nil, nil)}
		res := rig.MustRun(workload.GroupBy(size, o.Split(groupBySplit)), core.Policies{})
		s.Add(floor, res.JobTime)
	}
	e.Series = []*metrics.Series{s}
	e.addFinding("floor 0.1 vs 0.6: %.1fx job-time difference", metrics.Ratio(s.Y[0], s.Y[len(s.Y)-1]))
	return e
}

var _ = storage.DefaultSSDSpec // anchor the import used via ssdSpec
