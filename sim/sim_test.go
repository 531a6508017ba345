package sim

import (
	"strings"
	"testing"

	"hpcmr/trace"
)

func TestDefaultsAndRun(t *testing.T) {
	c, err := New(Config{Nodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 10 {
		t.Fatalf("Nodes = %d", c.Nodes())
	}
	res, err := c.Run(Job{InputBytes: 8e9, SplitBytes: 128e6})
	if err != nil {
		t.Fatal(err)
	}
	if res.JobTime <= 0 || res.MapTasks != 63 {
		t.Fatalf("JobTime=%v MapTasks=%d", res.JobTime, res.MapTasks)
	}
	if got := res.Dissection.Total(); got <= 0 {
		t.Fatalf("dissection = %v", got)
	}
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestAllBenchmarksRun(t *testing.T) {
	for _, b := range []Benchmark{GroupBy, Grep, LR} {
		c, err := New(Config{Nodes: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(Job{Benchmark: b, InputBytes: 4e9, SplitBytes: 64e6})
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if res.JobTime <= 0 {
			t.Fatalf("%s: JobTime = %v", b, res.JobTime)
		}
	}
}

func TestAllPoliciesRun(t *testing.T) {
	for _, p := range []Policy{FIFO, Locality, DelayScheduling, ELB} {
		c, err := New(Config{Nodes: 8, Skew: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(Job{Benchmark: Grep, InputBytes: 4e9, SplitBytes: 64e6, Policy: p}); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}

// TestInputAndStore runs each input source and store choice and checks
// what the job resolved them to.
func TestInputAndStore(t *testing.T) {
	for _, tc := range []struct {
		name         string
		dev          Device
		job          Job
		input, store string
	}{
		{"groupby default", RAMDisk, Job{}, "generated", "local"},
		{"groupby from hdfs", RAMDisk, Job{Input: HDFS}, "hdfs", "local"},
		{"groupby storeless", RAMDisk, Job{Store: NoStore}, "generated", "none"},
		{"grep default", RAMDisk, Job{Benchmark: Grep}, "hdfs", "local"},
		{"grep generated", RAMDisk, Job{Benchmark: Grep, Input: Generated}, "generated", "local"},
		{"lr default", RAMDisk, Job{Benchmark: LR}, "hdfs", "none"},
	} {
		c, err := New(Config{Nodes: 8, Device: tc.dev})
		if err != nil {
			t.Fatal(err)
		}
		tc.job.InputBytes, tc.job.SplitBytes = 8e9, 128e6
		res, err := c.Run(tc.job)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Input != tc.input || res.Store != tc.store {
			t.Fatalf("%s: input=%s store=%s, want %s/%s", tc.name, res.Input, res.Store, tc.input, tc.store)
		}
		if res.JobTime <= 0 || res.MapTasks != 63*len(res.Iters) {
			t.Fatalf("%s: JobTime=%v MapTasks=%d", tc.name, res.JobTime, res.MapTasks)
		}
		stored := res.Dissection.Storing+res.Dissection.Shuffle > 0
		if stored != (tc.store != "none") || stored != (res.StoringTasks.N > 0) {
			t.Fatalf("%s: store=%s but storing+shuffle=%v and %d storing tasks",
				tc.name, tc.store, res.Dissection.Storing+res.Dissection.Shuffle, res.StoringTasks.N)
		}
	}
}

func TestLustrePaths(t *testing.T) {
	c, err := New(Config{Nodes: 8, Device: NoDevice})
	if err != nil {
		t.Fatal(err)
	}
	local, err := c.Run(Job{InputBytes: 8e9, SplitBytes: 128e6, Store: LustreLocal})
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := New(Config{Nodes: 8, Device: NoDevice})
	shared, err := c2.Run(Job{InputBytes: 8e9, SplitBytes: 128e6, Store: LustreShared})
	if err != nil {
		t.Fatal(err)
	}
	if local.Store != "lustre-local" || shared.Store != "lustre-shared" {
		t.Fatalf("stores = %s, %s", local.Store, shared.Store)
	}
	if shared.JobTime <= local.JobTime {
		t.Fatalf("shared fetch (%v) should be slower than writer-served (%v)",
			shared.JobTime, local.JobTime)
	}
}

func TestCADOption(t *testing.T) {
	c, err := New(Config{Nodes: 8, Device: SSD})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(Job{InputBytes: 8e9, CAD: true}); err != nil {
		t.Fatal(err)
	}
}

// TestTracedRunRecordsDecisions checks that a traced cluster's policies
// report their decisions, and that task spans carry launch locality.
func TestTracedRunRecordsDecisions(t *testing.T) {
	// CAD's congestion signal fires at 16 GB of storing per SSD node;
	// at 4 GB it stays quiet.
	c, err := New(Config{Nodes: 8, Device: SSD, Skew: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := c.Trace()
	res, err := c.Run(Job{InputBytes: 128e9, Input: HDFS, Policy: ELB, CAD: true})
	if err != nil {
		t.Fatal(err)
	}
	decisions := map[string]int{}
	localMaps := 0
	for _, e := range tr.Events() {
		switch {
		case e.Cat == trace.CatSched:
			decisions[strings.SplitN(e.Name, ":", 2)[0]]++
		case e.Cat == trace.CatTask && strings.HasPrefix(e.Stage, "map/") && e.Detail == "local":
			localMaps++
		}
	}
	if decisions["elb"] == 0 || decisions["cad"] == 0 {
		t.Fatalf("scheduler decisions = %v, want elb and cad events", decisions)
	}
	if localMaps != res.LocalLaunches || localMaps == 0 || localMaps == res.MapTasks {
		t.Fatalf("%d map spans tagged local, result counts %d local of %d",
			localMaps, res.LocalLaunches, res.MapTasks)
	}
}

// TestSkewImbalance: node skew, not the job, unbalances the
// intermediate data — the same job on an unskewed cluster stays even.
func TestSkewImbalance(t *testing.T) {
	ratio := func(skew bool) float64 {
		c, err := New(Config{Nodes: 16, Skew: skew, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(Job{InputBytes: 50e9, SplitBytes: 64e6})
		if err != nil {
			t.Fatal(err)
		}
		return res.ImbalanceRatio()
	}
	if r := ratio(true); r < 1.1 {
		t.Fatalf("skewed ImbalanceRatio = %v, want skew-induced imbalance", r)
	}
	if r := ratio(false); r >= 1.1 {
		t.Fatalf("unskewed ImbalanceRatio = %v, want an even spread", r)
	}
}

func TestInvalidInputs(t *testing.T) {
	if _, err := New(Config{Device: "floppy"}); err == nil {
		t.Fatal("bad device accepted")
	}
	c, _ := New(Config{Nodes: 4})
	for _, job := range []Job{
		{Benchmark: "sort"},
		{Input: "tape"},
		{Store: "local"},
		{Policy: "random"},
	} {
		if _, err := c.Run(job); err == nil {
			t.Fatalf("bad job accepted: %+v", job)
		}
	}
}

func TestGrepFromLustre(t *testing.T) {
	c, err := New(Config{Nodes: 8, Device: NoDevice})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(Job{
		Benchmark:  Grep,
		InputBytes: 8e9,
		SplitBytes: 64e6,
		Input:      Lustre,
		Store:      LustreLocal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.JobTime <= 0 || res.Input != "lustre" {
		t.Fatalf("grep from Lustre: JobTime=%v input=%s", res.JobTime, res.Input)
	}
}
