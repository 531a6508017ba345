// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation. Each benchmark regenerates its experiment at
// full scale (100 simulated nodes, the paper's data sizes) and prints
// the same rows/series the paper reports, plus the computed headline
// findings compared against the paper's claims.
//
//	go test -bench=. -benchmem
//
// BenchmarkEngine* are conventional micro/macro benchmarks of the real
// execution engine and the simulation kernel.
package hpcmr_test

import (
	"strings"
	"sync/atomic"
	"testing"

	"hpcmr"
	"hpcmr/engine"
	"hpcmr/internal/experiments"
	"hpcmr/internal/simclock"
	"hpcmr/rdd"
)

// benchOptions is the full-scale configuration used by every
// paper-experiment benchmark. Set -short to shrink runs 25x.
func benchOptions(b *testing.B) experiments.Options {
	return experiments.Options{Quick: testing.Short(), Seed: 1}
}

// runExperiment executes one experiment per iteration and logs its
// table once.
func runExperiment(b *testing.B, id string) {
	run, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOptions(b)
	var out string
	for i := 0; i < b.N; i++ {
		e := run(opt)
		out = e.String()
	}
	b.Log("\n" + out)
}

func BenchmarkTable1Config(b *testing.B)       { runExperiment(b, "table1") }
func BenchmarkFig5aGrepInput(b *testing.B)     { runExperiment(b, "fig5a") }
func BenchmarkFig5bLRInput(b *testing.B)       { runExperiment(b, "fig5b") }
func BenchmarkFig7aIntermediate(b *testing.B)  { runExperiment(b, "fig7a") }
func BenchmarkFig7bLustreDissect(b *testing.B) { runExperiment(b, "fig7b") }
func BenchmarkFig8aSSDvsRAMDisk(b *testing.B)  { runExperiment(b, "fig8a") }
func BenchmarkFig8bSSDDissect(b *testing.B)    { runExperiment(b, "fig8b") }
func BenchmarkFig8cTaskVariation(b *testing.B) { runExperiment(b, "fig8c") }
func BenchmarkFig8dLaunchOrder(b *testing.B)   { runExperiment(b, "fig8d") }
func BenchmarkFig9DelaySched(b *testing.B)     { runExperiment(b, "fig9") }
func BenchmarkFig10Locality(b *testing.B)      { runExperiment(b, "fig10") }
func BenchmarkFig12SkewCDF(b *testing.B)       { runExperiment(b, "fig12") }
func BenchmarkFig13ELBStorage(b *testing.B)    { runExperiment(b, "fig13a") }
func BenchmarkFig13ELBNetwork(b *testing.B)    { runExperiment(b, "fig13b") }
func BenchmarkFig14CAD(b *testing.B)           { runExperiment(b, "fig14") }

// Ablation benches: design-choice sensitivity studies beyond the paper.
func BenchmarkAblationELBThreshold(b *testing.B) { runExperiment(b, "ablation-elb") }
func BenchmarkAblationCADMechanism(b *testing.B) { runExperiment(b, "ablation-cad") }
func BenchmarkAblationLocalityWait(b *testing.B) { runExperiment(b, "ablation-wait") }
func BenchmarkAblationFetchSize(b *testing.B)    { runExperiment(b, "ablation-fetch") }
func BenchmarkAblationSSDFloor(b *testing.B)     { runExperiment(b, "ablation-ssdfloor") }

// ---- engine micro/macro benchmarks ----

// BenchmarkEngineWordCount measures the real RDD engine end to end on
// an in-memory corpus.
func BenchmarkEngineWordCount(b *testing.B) {
	ctx, err := rdd.NewContext(engine.Config{Executors: 4, CoresPerExecutor: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Stop()
	lines := make([]string, 2000)
	for i := range lines {
		lines[i] = "the quick brown fox jumps over the lazy dog again and again"
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rdd.Parallelize(ctx, lines, 8)
		words := rdd.FlatMap(r, strings.Fields)
		pairs := rdd.Map(words, func(w string) rdd.Pair[string, int] {
			return rdd.Pair[string, int]{Key: w, Value: 1}
		})
		if _, err := rdd.ReduceByKey(pairs, func(x, y int) int { return x + y }, 4).Count(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStageDispatch measures raw stage scheduling overhead:
// many no-op tasks through the runtime.
func BenchmarkEngineStageDispatch(b *testing.B) {
	rt, err := engine.New(engine.Config{Executors: 4, CoresPerExecutor: 4})
	if err != nil {
		b.Fatal(err)
	}
	tasks := make([]engine.TaskSpec, 256)
	var sink atomic.Int64
	for i := range tasks {
		tasks[i] = engine.TaskSpec{Run: func(tc *engine.TaskContext) error {
			sink.Add(1)
			return nil
		}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.RunStage("bench", tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCachedIteration measures the memory-resident reuse
// path: repeated actions on a cached RDD.
func BenchmarkEngineCachedIteration(b *testing.B) {
	ctx, err := rdd.NewContext(engine.Config{Executors: 4, CoresPerExecutor: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Stop()
	data := make([]float64, 100000)
	for i := range data {
		data[i] = float64(i)
	}
	cached := rdd.Parallelize(ctx, data, 8).Cache()
	if _, err := cached.Count(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rdd.Sum(cached); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimKernelEvents measures the discrete-event kernel's raw
// event throughput.
func BenchmarkSimKernelEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := simclock.New()
		count := 0
		var tick func()
		tick = func() {
			count++
			if count < 10000 {
				s.After(1, tick)
			}
		}
		s.After(0, tick)
		s.Run()
	}
}

// BenchmarkSimFluidFlows measures the fluid-flow system under churn:
// staggered flows over a shared resource.
func BenchmarkSimFluidFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := simclock.New()
		fl := simclock.NewFluid(s)
		r := fl.NewRes("link", 1e9)
		for j := 0; j < 500; j++ {
			start := float64(j) * 0.001
			s.At(start, func() {
				fl.Start(1e6, nil, r)
			})
		}
		s.Run()
	}
}

// BenchmarkSimFluidChurn runs the kernel's headline churn scenario
// (8,000 flows over 200 resources, >4,000 concurrent) end to end on the
// incremental kernel; internal/simclock's BenchmarkKernel* suite holds
// the side-by-side comparison against the recompute-the-world oracle,
// and mrperf's kernel/churn-* scenarios the pair `cigate kernel` gates.
func BenchmarkSimFluidChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		done, peak := simclock.RunKernelChurn(false, simclock.KernelChurnScale)
		if done == 0 || peak == 0 {
			b.Fatal("empty churn run")
		}
	}
}

// TestHarnessWiring smoke-tests the root package and the experiment
// registry the benchmarks above depend on.
func TestHarnessWiring(t *testing.T) {
	if hpcmr.Version == "" {
		t.Fatal("empty version")
	}
	ids := experiments.IDs()
	if len(ids) != 20 {
		t.Fatalf("experiment registry has %d entries, want 20", len(ids))
	}
	for _, id := range ids {
		if _, err := experiments.Lookup(id); err != nil {
			t.Fatal(err)
		}
	}
}
