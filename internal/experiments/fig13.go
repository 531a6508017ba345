package experiments

import (
	"hpcmr/internal/cluster"
	"hpcmr/internal/core"
	"hpcmr/internal/metrics"
	"hpcmr/internal/sched"
	"hpcmr/internal/workload"
)

// runELB runs GroupBy on a skewed rig with the baseline or ELB map
// policy.
func runELB(o Options, spec RigSpec, size, split float64, elb bool) *core.Result {
	rig := NewRig(o, spec)
	job := workload.GroupBy(size, o.Split(split))
	pol := core.Policies{}
	if elb {
		pol.Map = sched.NewELB(len(rig.Cluster.Nodes), sched.ELBThreshold)
	}
	return rig.MustRun(job, pol)
}

// Fig13a — ELB under a storage bottleneck (SSD intermediate storage).
func Fig13a(o Options) *Experiment {
	e := &Experiment{
		ID:    "fig13a",
		Title: "ELB vs Spark, storage bottleneck on SSD (paper: similar <= 900 GB; ELB ~26% better for 1-1.5 TB; staging phase 2.2x)",
	}
	sizes := []float64{600 * workload.GB, 800 * workload.GB, 1000 * workload.GB, 1200 * workload.GB, 1500 * workload.GB}
	rigSpec := RigSpec{Device: cluster.SSDDevice, SkewSigma: 0.22}
	mk := func(label string) *metrics.Series {
		return &metrics.Series{Label: label, XLabel: "data GB", YLabel: "storing+shuffle s"}
	}
	base, elb := mk("spark"), mk("elb")
	baseStage, elbStage := mk("spark-staging"), mk("elb-staging")
	var impLarge, stageRatio []float64
	for _, size := range sizes {
		sz := size * o.DataScale()
		b := runELB(o, rigSpec, sz, groupBySplit, false)
		v := runELB(o, rigSpec, sz, groupBySplit, true)
		db, dv := b.Dissection(), v.Dissection()
		x := size / workload.GB
		// The paper's Fig 13 omits the computation phase for clarity.
		base.Add(x, db.Storing+db.Shuffle)
		elb.Add(x, dv.Storing+dv.Shuffle)
		baseStage.Add(x, db.Storing)
		elbStage.Add(x, dv.Storing)
		if size >= 1000*workload.GB {
			impLarge = append(impLarge, metrics.Improvement(db.Storing+db.Shuffle, dv.Storing+dv.Shuffle))
			stageRatio = append(stageRatio, metrics.Ratio(db.Storing, dv.Storing))
		}
	}
	e.Series = []*metrics.Series{base, elb, baseStage, elbStage}
	e.addFinding("ELB improvement for 1-1.5 TB: avg %.1f%% (paper: 26%%)", 100*metrics.MeanOf(impLarge))
	e.addFinding("staging-phase speedup for 1-1.5 TB: avg %.1fx (paper: 2.2x)", metrics.MeanOf(stageRatio))
	return e
}

// Fig13b — ELB under a network bottleneck (128 KB FetchRequests narrow
// the effective bandwidth).
func Fig13b(o Options) *Experiment {
	e := &Experiment{
		ID:    "fig13b",
		Title: "ELB vs Spark, network bottleneck via 128 KB FetchRequests (paper: Spark 14.8% worse avg, 17.5% at 400 GB; shuffle 29.1% slower)",
	}
	sizes := []float64{400 * workload.GB, 600 * workload.GB, 800 * workload.GB, 1000 * workload.GB, 1200 * workload.GB}
	rigSpec := RigSpec{
		Device:            cluster.RAMDiskDevice,
		SkewSigma:         0.22,
		FetchRequestBytes: 128 * 1024,
	}
	mk := func(label string) *metrics.Series {
		return &metrics.Series{Label: label, XLabel: "data GB", YLabel: "storing+shuffle s"}
	}
	base, elb := mk("spark"), mk("elb")
	baseShuf, elbShuf := mk("spark-shuffle"), mk("elb-shuffle")
	var imps, shufImps []float64
	var imp400 float64
	for _, size := range sizes {
		sz := size * o.DataScale()
		// 128 MB splits: several waves of map tasks even at 400 GB, so
		// node skew has room to imbalance the intermediate data.
		b := runELB(o, rigSpec, sz, 128*workload.MB, false)
		v := runELB(o, rigSpec, sz, 128*workload.MB, true)
		db, dv := b.Dissection(), v.Dissection()
		x := size / workload.GB
		base.Add(x, db.Storing+db.Shuffle)
		elb.Add(x, dv.Storing+dv.Shuffle)
		baseShuf.Add(x, db.Shuffle)
		elbShuf.Add(x, dv.Shuffle)
		imp := metrics.Improvement(db.Storing+db.Shuffle, dv.Storing+dv.Shuffle)
		imps = append(imps, imp)
		shufImps = append(shufImps, metrics.Improvement(db.Shuffle, dv.Shuffle))
		if size == 400*workload.GB {
			imp400 = imp
		}
	}
	e.Series = []*metrics.Series{base, elb, baseShuf, elbShuf}
	e.addFinding("ELB improvement: avg %.1f%% (paper: 14.8%%); at 400 GB: %.1f%% (paper: 17.5%%)",
		100*metrics.MeanOf(imps), 100*imp400)
	e.addFinding("shuffle-phase improvement: avg %.1f%% (paper: 29.1%%)", 100*metrics.MeanOf(shufImps))
	return e
}
