package workload

import (
	"testing"

	"hpcmr/internal/core"
)

func TestGroupBySpec(t *testing.T) {
	s := GroupBy(600*GB, 256*MB)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.IntermediateRatio != 1 {
		t.Fatalf("GroupBy ratio = %v, want 1 (intermediate == input)", s.IntermediateRatio)
	}
	if s.Input != core.InputGenerated || s.Store != core.StoreLocal {
		t.Fatalf("GroupBy IO = %v/%v", s.Input, s.Store)
	}
	if got := s.NumMapTasks(); got != 2344 {
		t.Fatalf("NumMapTasks = %d, want 2344 (600 GB / 256 MB rounded up)", got)
	}
}

func TestGrepSpec(t *testing.T) {
	s := Grep(400*GB, 32*MB, core.InputLustre)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Input != core.InputLustre {
		t.Fatalf("Input = %v", s.Input)
	}
	// Intermediate data must land in the paper's 1 MB - 200 MB window
	// for the studied input range.
	for _, in := range []float64{2 * GB, 50 * GB, 400 * GB} {
		inter := in * GrepIntermediateRatio
		if inter < 1*MB || inter > 200*MB {
			t.Fatalf("grep intermediate at %v GB input = %v MB, outside paper's 1-200 MB", in/GB, inter/MB)
		}
	}
}

func TestLRSpec(t *testing.T) {
	s := LogisticRegression(100*GB, 32*MB, core.InputHDFS)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Iterations != 3 {
		t.Fatalf("Iterations = %d, want 3", s.Iterations)
	}
	if !s.CacheInput {
		t.Fatal("LR must cache input across iterations")
	}
	if s.Store != core.StoreNone || s.IntermediateRatio != 0 {
		t.Fatal("LR has no shuffle")
	}
}

func TestComputeIntensityOrdering(t *testing.T) {
	// The paper's characterization hinges on LR being far more
	// computation-intensive than Grep, which is lighter than GroupBy's
	// tuple generation.
	if !(LRRate < GrepRate && GrepRate < GroupByRate) {
		t.Fatalf("rates out of order: LR=%v Grep=%v GroupBy=%v", LRRate, GrepRate, GroupByRate)
	}
	if GrepRate/LRRate < 2 {
		t.Fatal("LR should be at least 2x more computation-intensive than Grep")
	}
}

func TestUnits(t *testing.T) {
	if MB != 1e6 || GB != 1e9 {
		t.Fatal("decimal units expected (the paper reports decimal sizes)")
	}
}
