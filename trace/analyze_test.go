package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestPhaseOf(t *testing.T) {
	cases := map[string]string{
		"map/0":        "map",
		"compute-3":    "map",
		"store/1":      "store",
		"shufflemap-2": "store",
		"shuffle/0":    "shuffle",
		"fetch-7":      "shuffle",
		"":             "map",
	}
	for in, want := range cases {
		if got := PhaseOf(in); got != want {
			t.Errorf("PhaseOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAnalyzeReconstructsTimeline(t *testing.T) {
	events := []Event{
		{TS: 0, Dur: 10, Kind: Span, Cat: CatJob, Name: "job", Node: -1, Peer: -1, Task: -1},
		{TS: 0, Dur: 4, Kind: Span, Cat: CatStage, Name: "map/0", Node: -1, Task: 4},
		{TS: 4, Dur: 2, Kind: Span, Cat: CatStage, Name: "store/0", Node: -1, Task: 4},
		{TS: 6, Dur: 4, Kind: Span, Cat: CatStage, Name: "shuffle/0", Node: -1, Task: 2},
		// Map tasks: node 0 deposits 300 bytes over two tasks, node 1
		// deposits 100 — skew max/mean = 300/200 = 1.5.
		{TS: 0, Dur: 1, Kind: Span, Cat: CatTask, Stage: "map/0", Task: 0, Node: 0, Bytes: 200},
		{TS: 1, Dur: 1, Kind: Span, Cat: CatTask, Stage: "map/0", Task: 1, Node: 0, Bytes: 100},
		{TS: 0, Dur: 3.9, Kind: Span, Cat: CatTask, Stage: "map/0", Task: 2, Node: 1, Bytes: 100, Detail: "failed"},
		{TS: 0, Dur: 1, Kind: Span, Cat: CatTask, Stage: "map/0", Task: 3, Node: 1, Bytes: 0},
		// Store tasks carry bytes too; map deposits must take precedence.
		{TS: 4, Dur: 1, Kind: Span, Cat: CatTask, Stage: "store/0", Task: 0, Node: 0, Bytes: 999},
		// Fetches land on node 1.
		{TS: 6, Dur: 2, Kind: Span, Cat: CatFetch, Stage: "shuffle/0", Task: 0, Node: 1, Peer: 0, Bytes: 150},
		{TS: 6, Dur: 1, Kind: Span, Cat: CatFetch, Stage: "shuffle/0", Task: 0, Node: 1, Peer: 0, Bytes: 150},
		{TS: 2, Kind: Instant, Cat: CatSched, Name: "elb:pause", Node: 0, Task: -1},
		{TS: 3, Kind: Instant, Cat: CatSched, Name: "elb:resume", Node: 0, Task: -1},
		{TS: 5, Kind: Instant, Cat: CatSched, Name: "cad:throttle", Node: 1, Task: -1},
	}
	a := Analyze(events)

	if a.Events != len(events) {
		t.Fatalf("Events = %d", a.Events)
	}
	if len(a.Jobs) != 1 || a.Jobs[0] != "job" || a.JobTime != 10 {
		t.Fatalf("jobs = %v, time = %v", a.Jobs, a.JobTime)
	}
	if a.Dissection.Compute != 4 || a.Dissection.Storing != 2 || a.Dissection.Shuffle != 4 {
		t.Fatalf("dissection = %+v", a.Dissection)
	}
	if a.Nodes != 2 {
		t.Fatalf("nodes = %d", a.Nodes)
	}
	if a.PerNodeBytes[0] != 300 || a.PerNodeBytes[1] != 100 {
		t.Fatalf("per-node bytes = %v (store bytes must not leak in)", a.PerNodeBytes)
	}
	if math.Abs(a.SkewRatio-1.5) > 1e-12 {
		t.Fatalf("skew = %v, want 1.5", a.SkewRatio)
	}
	if a.PerNodeTasks[0] != 3 || a.PerNodeTasks[1] != 2 {
		t.Fatalf("per-node tasks = %v", a.PerNodeTasks)
	}
	if a.PerNodeFetch[1] != 3 || a.PerNodeFetch[0] != 0 {
		t.Fatalf("per-node fetch = %v", a.PerNodeFetch)
	}
	if a.FetchCount != 2 || a.FetchBytes != 300 {
		t.Fatalf("fetches = %d / %v bytes", a.FetchCount, a.FetchBytes)
	}
	if a.Failures != 1 {
		t.Fatalf("failures = %d", a.Failures)
	}
	if a.Sched["elb:pause"] != 1 || a.Sched["elb:resume"] != 1 || a.Sched["cad:throttle"] != 1 {
		t.Fatalf("sched = %v", a.Sched)
	}
	// Median task dur = 1, threshold 1.5: the 3.9 s task is a straggler.
	if len(a.Stragglers) != 1 || a.Stragglers[0].Dur != 3.9 {
		t.Fatalf("stragglers = %+v (threshold %v)", a.Stragglers, a.StragglerThreshold)
	}

	var buf bytes.Buffer
	a.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{
		"jobs: job", "job time: 10.000", "skew max/mean=1.50x",
		"elb:pause=1", "stragglers", "failures=1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	a.WriteStragglers(&buf, 10)
	if !strings.Contains(buf.String(), "task=2") {
		t.Fatalf("straggler report missing task: %s", buf.String())
	}
}

func TestAnalyzeEmptyAndFallbacks(t *testing.T) {
	a := Analyze(nil)
	if a.Events != 0 || a.JobTime != 0 || a.SkewRatio != 0 || len(a.Stragglers) != 0 {
		t.Fatalf("empty analysis = %+v", a)
	}
	// No job span: JobTime falls back to trace extent. No map bytes:
	// skew falls back to store-phase deposits.
	a = Analyze([]Event{
		{TS: 1, Dur: 2, Kind: Span, Cat: CatTask, Stage: "shufflemap-0", Node: 0, Bytes: 60},
		{TS: 2, Dur: 3, Kind: Span, Cat: CatTask, Stage: "shufflemap-0", Node: 1, Bytes: 20},
	})
	if a.JobTime != 4 {
		t.Fatalf("fallback job time = %v, want 4 (extent 1..5)", a.JobTime)
	}
	if a.PerNodeBytes[0] != 60 || a.PerNodeBytes[1] != 20 {
		t.Fatalf("store fallback bytes = %v", a.PerNodeBytes)
	}
	if math.Abs(a.SkewRatio-1.5) > 1e-12 {
		t.Fatalf("fallback skew = %v", a.SkewRatio)
	}
}

// TestAnalyzeLocalFetchSplit: "local"/"remote"-tagged fetch spans split
// the shuffle volume and yield the local ratio; untagged spans (the
// simulator's) count in the totals but not the split.
func TestAnalyzeLocalFetchSplit(t *testing.T) {
	a := Analyze([]Event{
		{TS: 0, Dur: 1, Kind: Span, Cat: CatFetch, Node: 0, Bytes: 900, Detail: "local"},
		{TS: 1, Dur: 1, Kind: Span, Cat: CatFetch, Node: 1, Bytes: 300, Detail: "local"},
		{TS: 2, Dur: 1, Kind: Span, Cat: CatFetch, Node: 1, Bytes: 400, Detail: "remote"},
		{TS: 3, Dur: 1, Kind: Span, Cat: CatFetch, Node: 0, Bytes: 50}, // untagged
	})
	if a.LocalFetchBytes != 1200 || a.RemoteFetchBytes != 400 {
		t.Fatalf("split = %v local / %v remote, want 1200/400", a.LocalFetchBytes, a.RemoteFetchBytes)
	}
	if math.Abs(a.LocalFetchRatio-0.75) > 1e-12 {
		t.Fatalf("local ratio = %v, want 0.75", a.LocalFetchRatio)
	}
	if a.FetchBytes != 1650 {
		t.Fatalf("fetch bytes = %v, want 1650", a.FetchBytes)
	}
	var buf bytes.Buffer
	a.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "shuffle locality: local=1200 remote=400 bytes, local ratio=0.7500") {
		t.Fatalf("summary missing locality line:\n%s", buf.String())
	}

	// No tagged spans: no ratio, no summary line.
	a = Analyze([]Event{{TS: 0, Dur: 1, Kind: Span, Cat: CatFetch, Node: 0, Bytes: 50}})
	if a.LocalFetchRatio != 0 {
		t.Fatalf("untagged-only ratio = %v, want 0", a.LocalFetchRatio)
	}
	buf.Reset()
	a.WriteSummary(&buf)
	if strings.Contains(buf.String(), "shuffle locality") {
		t.Fatalf("summary has locality line with no tagged spans:\n%s", buf.String())
	}
}
