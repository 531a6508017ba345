package experiments

import (
	"math"
	"testing"

	"hpcmr/internal/cluster"
	"hpcmr/internal/core"
	"hpcmr/internal/sched"
	"hpcmr/internal/workload"
)

// TestRigDeterminism is the reproducibility contract every perf
// scenario and golden test leans on: two rigs assembled from the same
// Options and RigSpec must run the same job to bit-identical results.
func TestRigDeterminism(t *testing.T) {
	o := Options{Quick: true, Seed: 3}
	specs := map[string]RigSpec{
		"ramdisk-skew": {Device: cluster.RAMDiskDevice, SkewSigma: 0.18},
		"ssd":          {Device: cluster.SSDDevice},
	}
	for name, spec := range specs {
		job := workload.GroupBy(200e9*o.DataScale(), o.Split(256e6))
		a := NewRig(o, spec).MustRun(job, core.Policies{})
		b := NewRig(o, spec).MustRun(job, core.Policies{})
		if a.JobTime != b.JobTime {
			t.Errorf("%s: job time %.6f vs %.6f across identical rigs", name, a.JobTime, b.JobTime)
		}
		if a.Dissection() != b.Dissection() {
			t.Errorf("%s: dissection %+v vs %+v", name, a.Dissection(), b.Dissection())
		}
		pa, pb := a.PerNodeIntermediate(), b.PerNodeIntermediate()
		if len(pa) != len(pb) {
			t.Fatalf("%s: per-node lengths differ", name)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Errorf("%s: node %d intermediate %g vs %g", name, i, pa[i], pb[i])
				break
			}
		}
	}
}

// TestRigSeedChangesSkewedRun guards against the opposite failure: the
// seed must actually reach the skew model (a constant-output rig would
// also pass the determinism test).
func TestRigSeedChangesSkewedRun(t *testing.T) {
	spec := RigSpec{Device: cluster.RAMDiskDevice, SkewSigma: 0.18}
	job := workload.GroupBy(200e9/25, 256e6/25)
	a := NewRig(Options{Quick: true, Seed: 3}, spec).MustRun(job, core.Policies{})
	b := NewRig(Options{Quick: true, Seed: 4}, spec).MustRun(job, core.Policies{})
	if a.JobTime == b.JobTime {
		t.Errorf("different seeds produced identical skewed job times (%.6f)", a.JobTime)
	}
}

// TestRigPolicyDeterminism repeats the determinism check on the ELB
// path Fig 13 and the perf suite measure.
func TestRigPolicyDeterminism(t *testing.T) {
	o := Options{Quick: true, Seed: 1}
	spec := RigSpec{Device: cluster.SSDDevice, SkewSigma: 0.22}
	job := workload.GroupBy(1000e9*o.DataScale(), o.Split(256e6))
	run := func() *core.Result {
		rig := NewRig(o, spec)
		return rig.MustRun(job, core.Policies{Map: sched.NewELB(len(rig.Cluster.Nodes), 0.25)})
	}
	a, b := run(), run()
	da, db := a.Dissection(), b.Dissection()
	if a.JobTime != b.JobTime || da != db {
		t.Errorf("ELB rig not deterministic: %.6f %+v vs %.6f %+v", a.JobTime, da, b.JobTime, db)
	}
}

// TestOptionsScaling pins the quick-mode scaling contract: per-node
// ratios (and so every crossover point) must match full scale.
func TestOptionsScaling(t *testing.T) {
	quick := Options{Quick: true}
	full := Options{}
	if quick.Nodes() != 20 || full.Nodes() != 100 {
		t.Errorf("nodes = %d/%d, want 20/100", quick.Nodes(), full.Nodes())
	}
	// Per-node data volume ratio: full = scale*size/nodes; quick must
	// keep data-per-node at the same fraction resScale corrects for.
	split := 256e6
	if got := quick.Split(split) / split; math.Abs(got-quick.DataScale()/(20.0/100)) > 1e-12 {
		t.Errorf("quick split scaling = %g, want DataScale/nodeFraction", got)
	}
	if full.Split(split) != split {
		t.Errorf("full split scaling changed the split")
	}
}
