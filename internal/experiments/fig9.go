package experiments

import (
	"hpcmr/internal/cluster"
	"hpcmr/internal/core"
	"hpcmr/internal/metrics"
	"hpcmr/internal/sched"
	"hpcmr/internal/workload"
)

// fig9Splits are the split sizes swept by the delay-scheduling study.
var fig9Splits = []float64{32 * workload.MB, 64 * workload.MB, 128 * workload.MB}

// fig9Input is the input size for the Fig 9 runs — large enough that
// every node works through many waves of tasks, which is where delay
// scheduling's idle windows accumulate.
const fig9Input = 400 * workload.GB

// runHDFSWithPolicy runs a benchmark on the data-centric rig with skew
// under the given map policy.
func runHDFSWithPolicy(o Options, spec core.JobSpec, pol sched.Policy) *core.Result {
	rig := NewRig(o, RigSpec{Device: cluster.RAMDiskDevice, WithHDFS: true, SkewSigma: 0.30})
	return rig.MustRun(spec, core.Policies{Map: pol})
}

// Fig9 — performance degradation caused by delay scheduling on the
// data-centric configuration, for Grep (a) and LR (b).
func Fig9(o Options) *Experiment {
	e := &Experiment{
		ID:    "fig9",
		Title: "Delay scheduling on HDFS config (paper: Grep degrades 42.7% and LR 9.9% at 32 MB splits)",
	}
	mk := func(label string) *metrics.Series {
		return &metrics.Series{Label: label, XLabel: "split MB", YLabel: "job time s"}
	}
	grepOff, grepOn := mk("grep-nodelay"), mk("grep-delay")
	lrOff, lrOn := mk("lr-nodelay"), mk("lr-delay")
	var grep32, lr32 float64
	for _, split := range fig9Splits {
		sz := fig9Input * o.DataScale()
		g := workload.Grep(sz, o.Split(split), core.InputHDFS)
		gOff := runHDFSWithPolicy(o, g, sched.NewLocalityPreferring())
		gOn := runHDFSWithPolicy(o, g, sched.NewDelay(sched.SparkLocalityWait))
		l := workload.LogisticRegression(sz, o.Split(split), core.InputHDFS)
		lOff := runHDFSWithPolicy(o, l, sched.NewLocalityPreferring())
		lOn := runHDFSWithPolicy(o, l, sched.NewDelay(sched.SparkLocalityWait))

		x := split / workload.MB
		grepOff.Add(x, gOff.JobTime)
		grepOn.Add(x, gOn.JobTime)
		lrOff.Add(x, lOff.JobTime)
		lrOn.Add(x, lOn.JobTime)
		if split == 32*workload.MB {
			grep32 = metrics.Ratio(gOn.JobTime, gOff.JobTime) - 1
			lr32 = metrics.Ratio(lOn.JobTime, lOff.JobTime) - 1
		}
	}
	e.Series = []*metrics.Series{grepOff, grepOn, lrOff, lrOn}
	e.addFinding("Grep degradation from delay scheduling at 32 MB: %.1f%% (paper: 42.7%%)", 100*grep32)
	e.addFinding("LR degradation from delay scheduling at 32 MB: %.1f%% (paper: 9.9%%)", 100*lr32)
	return e
}

// Fig10 — task execution times with local vs remote input data for the
// three benchmarks: pipelining computation with input erases the
// locality benefit.
func Fig10(o Options) *Experiment {
	e := &Experiment{
		ID:    "fig10",
		Title: "Task time with local vs remote data (paper: forcing 100% locality gains little for all three benchmarks)",
	}
	mk := func(label string) *metrics.Series {
		return &metrics.Series{Label: label, XLabel: "benchmark#", YLabel: "task s"}
	}
	avgL, minL, maxL := mk("local-avg"), mk("local-min"), mk("local-max")
	avgR, minR, maxR := mk("remote-avg"), mk("remote-min"), mk("remote-max")

	sz := 100 * workload.GB * o.DataScale()
	specs := []core.JobSpec{
		func() core.JobSpec { // GroupBy variant reading its input from HDFS
			s := workload.GroupBy(sz, o.Split(groupBySplit))
			s.Input = core.InputHDFS
			return s
		}(),
		workload.Grep(sz, o.Split(128*workload.MB), core.InputHDFS),
		workload.LogisticRegression(sz, o.Split(128*workload.MB), core.InputHDFS),
	}
	for i, spec := range specs {
		local := runHDFSWithPolicy(o, spec, sched.NewLocalityPreferring())
		remote := runHDFSWithPolicy(o, spec, sched.NewForcedRemote())
		sl := metrics.Summarize(local.Iters[0].Map.Timeline.Durations())
		sr := metrics.Summarize(remote.Iters[0].Map.Timeline.Durations())
		x := float64(i + 1)
		avgL.Add(x, sl.Mean)
		minL.Add(x, sl.Min)
		maxL.Add(x, sl.Max)
		avgR.Add(x, sr.Mean)
		minR.Add(x, sr.Min)
		maxR.Add(x, sr.Max)
		e.addFinding("%s: remote/local avg task-time ratio %.2fx (paper: ~1x)",
			spec.Name, metrics.Ratio(sr.Mean, sl.Mean))
	}
	e.Series = []*metrics.Series{avgL, minL, maxL, avgR, minR, maxR}
	return e
}
