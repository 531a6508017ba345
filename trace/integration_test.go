package trace_test

// End-to-end check of the acceptance criterion: a traced fig7-style
// shuffle run (GroupBy, skewed nodes, ELB maps + CAD storing) must
// capture task-attempt spans, shuffle-fetch spans, and scheduler
// decision events — and Analyze must reproduce the simulator's own
// per-node intermediate-data skew and phase dissection from the
// captured events alone.

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"hpcmr/internal/cluster"
	"hpcmr/internal/core"
	"hpcmr/internal/sched"
	"hpcmr/internal/workload"
	"hpcmr/trace"
)

func runTracedGroupBy(t *testing.T) (*trace.Tracer, *core.Result) {
	t.Helper()
	const nodes = 8
	cfg := cluster.DefaultConfig(nodes)
	cfg.LocalDevice = cluster.RAMDiskDevice
	cfg.Skew = cluster.SkewConfig{Sigma: 0.5, DriftAmplitude: 0.10, DriftPeriod: 600}
	cfg.Seed = 1
	c := cluster.New(cfg)
	eng := core.NewEngine(c, nil, nil)

	tr := trace.New(c.Sim.Now)
	eng.Tracer = tr
	audit := trace.SchedAudit(tr)

	elb := sched.NewELB(nodes, 0.05)
	elb.Audit = audit
	cad := sched.NewCAD(sched.NewPinned())
	cad.Audit = audit

	res, err := eng.Run(workload.GroupBy(4*workload.GB, 64*workload.MB),
		core.Policies{Map: elb, Store: cad})
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

func TestSimulatorTraceCapturesAllSpanKinds(t *testing.T) {
	tr, res := runTracedGroupBy(t)
	events := tr.Events()
	if tr.Drops() != 0 {
		t.Fatalf("default capacity dropped %d events", tr.Drops())
	}

	counts := map[trace.Category]int{}
	mapTasks, localMaps, fetches, elbDecisions := 0, 0, 0, 0
	for _, e := range events {
		counts[e.Cat]++
		switch e.Cat {
		case trace.CatTask:
			if e.Detail != "" && e.Detail != "local" {
				t.Fatalf("task span detail %q, want \"local\" or none", e.Detail)
			}
			if strings.HasPrefix(e.Stage, "map/") {
				mapTasks++
				if e.Detail == "local" {
					localMaps++
				}
			}
		case trace.CatFetch:
			fetches++
			if e.Peer < 0 || e.Node < 0 {
				t.Fatalf("fetch span without src/dst: %+v", e)
			}
		case trace.CatSched:
			if strings.HasPrefix(e.Name, "elb:") {
				elbDecisions++
			}
		}
	}
	if counts[trace.CatJob] != 1 {
		t.Fatalf("job spans = %d", counts[trace.CatJob])
	}
	if counts[trace.CatStage] != 3 {
		t.Fatalf("stage spans = %d, want map+store+shuffle", counts[trace.CatStage])
	}
	if want := res.Spec.NumMapTasks(); mapTasks != want {
		t.Fatalf("map task spans = %d, want %d", mapTasks, want)
	}
	if want := res.Iters[0].LocalLaunches; localMaps != want {
		t.Fatalf("map task spans tagged local = %d, want the %d local launches", localMaps, want)
	}
	if fetches == 0 {
		t.Fatal("no shuffle-fetch spans captured")
	}
	if elbDecisions == 0 {
		t.Fatal("no ELB decision events despite 0.05 threshold and sigma-0.5 skew")
	}
	// Virtual timestamps must stay within the job's time extent.
	for _, e := range events {
		if e.TS < 0 || e.End() > res.JobTime+1e-9 {
			t.Fatalf("event outside job extent [0, %v]: %+v", res.JobTime, e)
		}
	}
}

func TestAnalyzeMatchesSimulatorResult(t *testing.T) {
	tr, res := runTracedGroupBy(t)
	a := trace.Analyze(tr.Events())

	if math.Abs(a.JobTime-res.JobTime) > 1e-9 {
		t.Fatalf("job time from trace %v != simulator %v", a.JobTime, res.JobTime)
	}
	wantD := res.Dissection()
	if math.Abs(a.Dissection.Compute-wantD.Compute) > 1e-9 ||
		math.Abs(a.Dissection.Storing-wantD.Storing) > 1e-9 ||
		math.Abs(a.Dissection.Shuffle-wantD.Shuffle) > 1e-9 {
		t.Fatalf("dissection from trace %+v != simulator %+v", a.Dissection, wantD)
	}
	wantB := res.PerNodeIntermediate()
	if len(a.PerNodeBytes) != len(wantB) {
		t.Fatalf("per-node bytes length %d != %d", len(a.PerNodeBytes), len(wantB))
	}
	for n := range wantB {
		if math.Abs(a.PerNodeBytes[n]-wantB[n]) > 1e-6 {
			t.Fatalf("node %d intermediate bytes %v != simulator %v",
				n, a.PerNodeBytes[n], wantB[n])
		}
	}
	if a.SkewRatio <= 1 {
		t.Fatalf("sigma-0.5 skew produced SkewRatio %v, want > 1", a.SkewRatio)
	}
	wantTasks := res.PerNodeTasks()
	for n := range wantTasks {
		if a.PerNodeTasks[n] < wantTasks[n] {
			// Trace also counts store/shuffle tasks, so per-node totals
			// must be at least the map-task counts.
			t.Fatalf("node %d task count %d < map tasks %d",
				n, a.PerNodeTasks[n], wantTasks[n])
		}
	}
}

func TestTracedRunSurvivesExportRoundTrip(t *testing.T) {
	tr, res := runTracedGroupBy(t)
	direct := trace.Analyze(tr.Events())

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Analyze(loaded)
	if a.Events != direct.Events {
		t.Fatalf("%d events after round trip, want %d", a.Events, direct.Events)
	}
	if math.Abs(a.JobTime-res.JobTime) > 1e-6*res.JobTime {
		t.Fatalf("job time %v != %v", a.JobTime, res.JobTime)
	}
	for n := range direct.PerNodeBytes {
		if math.Abs(a.PerNodeBytes[n]-direct.PerNodeBytes[n]) > 1 {
			t.Fatalf("node %d bytes drifted: %v != %v", n, a.PerNodeBytes[n], direct.PerNodeBytes[n])
		}
	}
}

// TestTracerDoesNotPerturbSimulation pins the golden-fixture guarantee:
// the same job with and without a tracer must produce identical virtual
// results — tracing is observation-only.
func TestTracerDoesNotPerturbSimulation(t *testing.T) {
	run := func(traced bool) *core.Result {
		cfg := cluster.DefaultConfig(8)
		cfg.LocalDevice = cluster.RAMDiskDevice
		cfg.Skew = cluster.SkewConfig{Sigma: 0.5, DriftAmplitude: 0.10, DriftPeriod: 600}
		cfg.Seed = 1
		c := cluster.New(cfg)
		eng := core.NewEngine(c, nil, nil)
		if traced {
			eng.Tracer = trace.New(c.Sim.Now)
		}
		res, err := eng.Run(workload.GroupBy(2*workload.GB, 64*workload.MB), core.Policies{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, traced := run(false), run(true)
	if plain.JobTime != traced.JobTime {
		t.Fatalf("tracing changed the simulation: %v != %v", traced.JobTime, plain.JobTime)
	}
	pb, tb := plain.PerNodeIntermediate(), traced.PerNodeIntermediate()
	for n := range pb {
		if pb[n] != tb[n] {
			t.Fatalf("tracing changed node %d intermediate bytes", n)
		}
	}
}
