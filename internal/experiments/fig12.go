package experiments

import (
	"sort"

	"hpcmr/internal/cluster"
	"hpcmr/internal/core"
	"hpcmr/internal/metrics"
	"hpcmr/internal/workload"
)

// fig12Runs are the (tasks, nodes) combinations of the load-balance
// study: 2500 on 50, 5000 on 100, 7500 on 150, with 256 MB splits.
var fig12Runs = []struct {
	Tasks, Nodes int
}{
	{2500, 50}, {5000, 100}, {7500, 150},
}

// runFig12 runs a GroupBy sized to the given task count on a skewed
// cluster of the given size and returns per-node task counts and
// intermediate volumes.
func runFig12(o Options, nTasks, nodes int) (tasks []float64, inter []float64) {
	rig := NewRig(o, RigSpec{
		Device:        cluster.RAMDiskDevice,
		SkewSigma:     0.22,
		NodesOverride: nodes,
	})
	input := float64(nTasks) * o.Split(groupBySplit)
	spec := workload.GroupBy(input, o.Split(groupBySplit))
	res := rig.MustRun(spec, core.Policies{})
	for _, c := range res.PerNodeTasks() {
		tasks = append(tasks, float64(c))
	}
	inter = res.PerNodeIntermediate()
	return tasks, inter
}

// cdfSeries renders a per-node sample as percentile points.
func cdfSeries(label, ylabel string, sample []float64) *metrics.Series {
	s := &metrics.Series{Label: label, XLabel: "percentile", YLabel: ylabel}
	c := metrics.NewCDF(sample)
	for _, p := range []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1} {
		s.Add(100*p, c.InvAt(p))
	}
	return s
}

// Fig12 — CDFs of per-node task counts (a) and intermediate data
// volumes (b) under node performance skew.
func Fig12(o Options) *Experiment {
	e := &Experiment{
		ID:    "fig12",
		Title: "Unbalanced task assignment leads to unbalanced intermediate data (paper: head nodes ~7 GB vs tail nodes >14 GB at 100 nodes, ~2x)",
	}
	for _, run := range fig12Runs {
		tasks, inter := runFig12(o, run.Tasks, run.Nodes)
		gb := make([]float64, len(inter))
		for i, b := range inter {
			gb[i] = b / workload.GB
		}
		e.Series = append(e.Series,
			cdfSeries(seriesLabel("tasks", run.Nodes), "tasks/node", tasks),
			cdfSeries(seriesLabel("dataGB", run.Nodes), "GB/node", gb),
		)
		if run.Nodes == 100 {
			sorted := append([]float64(nil), inter...)
			sort.Float64s(sorted)
			head := metrics.MeanOf(sorted[:3])
			tail := metrics.MeanOf(sorted[len(sorted)-10:])
			e.addFinding("100-node run: head-3 nodes avg %.1f GB, tail-10 nodes avg %.1f GB — %.1fx (paper: ~2x)",
				head/workload.GB/o.DataScale(), tail/workload.GB/o.DataScale(), metrics.Ratio(tail, head))
		}
	}
	return e
}

func seriesLabel(kind string, nodes int) string {
	switch nodes {
	case 50:
		return kind + "-50n"
	case 100:
		return kind + "-100n"
	default:
		return kind + "-150n"
	}
}
