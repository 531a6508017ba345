package experiments

import (
	"hpcmr/internal/cluster"
	"hpcmr/internal/core"
	"hpcmr/internal/metrics"
	"hpcmr/internal/sched"
	"hpcmr/internal/workload"
)

// grepInputSizes are the Fig 5 input sizes in bytes (before scaling).
var fig5Sizes = []float64{50 * workload.GB, 100 * workload.GB, 200 * workload.GB, 400 * workload.GB}

// runGrepInput runs Grep with input on the given source.
func runGrepInput(o Options, input core.InputKind, size, split float64) *core.Result {
	switch input {
	case core.InputHDFS:
		rig := NewRig(o, RigSpec{Device: cluster.RAMDiskDevice, WithHDFS: true, SkewSigma: 0.30})
		spec := workload.Grep(size, o.Split(split), core.InputHDFS)
		// Spark's default on the data-centric configuration: delay
		// scheduling for locality.
		return rig.MustRun(spec, core.Policies{Map: sched.NewDelay(sched.SparkLocalityWait)})
	default:
		rig := NewRig(o, RigSpec{Device: cluster.NoLocalDevice, SkewSigma: 0.30})
		spec := workload.Grep(size, o.Split(split), core.InputLustre)
		// Compute-centric: no locality exists; intermediate (tiny) goes
		// through Lustre in the local-serving fashion.
		spec.Store = core.StoreLustreLocal
		return rig.MustRun(spec, core.Policies{Map: sched.NewFIFO()})
	}
}

// Fig5a — Grep job execution time retrieving input from HDFS vs Lustre,
// 32 MB and 128 MB splits.
func Fig5a(o Options) *Experiment {
	e := &Experiment{
		ID:    "fig5a",
		Title: "Grep input from HDFS vs Lustre (paper: Lustre up to ~5.7x worse at 32 MB; 128 MB split -15.9% vs 32 MB on Lustre)",
	}
	type cfgT struct {
		label string
		input core.InputKind
		split float64
	}
	cfgs := []cfgT{
		{"HDFS-32MB", core.InputHDFS, 32 * workload.MB},
		{"Lustre-32MB", core.InputLustre, 32 * workload.MB},
		{"HDFS-128MB", core.InputHDFS, 128 * workload.MB},
		{"Lustre-128MB", core.InputLustre, 128 * workload.MB},
	}
	series := make([]*metrics.Series, len(cfgs))
	for i, c := range cfgs {
		series[i] = gbSeries(c.label)
	}
	var ratio32, lus32, lus128 []float64
	for _, size := range fig5Sizes {
		sz := size * o.DataScale()
		var times [4]float64
		for i, c := range cfgs {
			res := runGrepInput(o, c.input, sz, c.split)
			times[i] = res.JobTime
			series[i].Add(size/workload.GB, res.JobTime)
		}
		ratio32 = append(ratio32, metrics.Ratio(times[1], times[0]))
		lus32 = append(lus32, times[1])
		lus128 = append(lus128, times[3])
	}
	e.Series = series
	e.addFinding("Lustre/HDFS ratio at 32 MB split: avg %.2fx (paper: up to 5.7x)", metrics.MeanOf(ratio32))
	e.addFinding("Lustre 128 MB vs 32 MB split: %.1f%% faster (paper: 15.9%%)",
		100*metrics.Improvement(metrics.MeanOf(lus32), metrics.MeanOf(lus128)))
	return e
}

// runLRInput runs Logistic Regression with input on the given source.
func runLRInput(o Options, input core.InputKind, size, split float64) *core.Result {
	switch input {
	case core.InputHDFS:
		rig := NewRig(o, RigSpec{Device: cluster.RAMDiskDevice, WithHDFS: true, SkewSigma: 0.30})
		spec := workload.LogisticRegression(size, o.Split(split), core.InputHDFS)
		return rig.MustRun(spec, core.Policies{Map: sched.NewDelay(sched.SparkLocalityWait)})
	default:
		rig := NewRig(o, RigSpec{Device: cluster.NoLocalDevice, SkewSigma: 0.30})
		spec := workload.LogisticRegression(size, o.Split(split), core.InputLustre)
		return rig.MustRun(spec, core.Policies{Map: sched.NewFIFO()})
	}
}

// Fig5b — Logistic Regression input from HDFS vs Lustre: the
// compute-centric configuration wins because delay scheduling idles the
// data-centric one.
func Fig5b(o Options) *Experiment {
	e := &Experiment{
		ID:    "fig5b",
		Title: "LR input from HDFS vs Lustre (paper: Lustre ~12.7% better at 32 MB split)",
	}
	hd := gbSeries("HDFS-32MB")
	lu := gbSeries("Lustre-32MB")
	var imps []float64
	for _, size := range fig5Sizes {
		sz := size * o.DataScale()
		h := runLRInput(o, core.InputHDFS, sz, 32*workload.MB)
		l := runLRInput(o, core.InputLustre, sz, 32*workload.MB)
		hd.Add(size/workload.GB, h.JobTime)
		lu.Add(size/workload.GB, l.JobTime)
		imps = append(imps, metrics.Improvement(h.JobTime, l.JobTime))
	}
	e.Series = []*metrics.Series{hd, lu}
	e.addFinding("Lustre better than HDFS by avg %.1f%% (paper: 12.7%%)", 100*metrics.MeanOf(imps))
	return e
}
