package sched

import "testing"

// feedBaseline establishes a 1 s typical regime: enough samples that
// the running median is anchored at 1.
func feedBaseline(p *CAD, n int) {
	for i := 0; i < n; i++ {
		p.Completed(i, i%4, 1, TaskStats{Duration: 1})
	}
}

func TestCADUnlimitedUntilCongestion(t *testing.T) {
	p := NewCAD(NewFIFO())
	p.StageStart(tasks(100, nil), 0)
	feedBaseline(p, 48)
	if p.Limit() != 0 {
		t.Fatalf("limit = %d before congestion, want unlimited", p.Limit())
	}
	// Offers flow freely.
	for i := 0; i < 20; i++ {
		if d := p.Offer(0, 0); d.TaskID < 0 {
			t.Fatal("uncongested CAD declined an offer")
		}
	}
}

func TestCADHalvesLimitOnJump(t *testing.T) {
	p := NewCAD(NewFIFO())
	p.StageStart(tasks(200, nil), 0)
	// Build up in-flight concurrency so maxInflight is meaningful.
	for i := 0; i < 16; i++ {
		if d := p.Offer(0, 0); d.TaskID < 0 {
			t.Fatal("offer declined")
		}
	}
	for i := 0; i < 16; i++ {
		p.Completed(i, 0, 1, TaskStats{Duration: 1})
	}
	feedBaseline(p, 32)
	// Congestion: a minority of tasks become 10x slower.
	for i := 0; i < 24; i++ {
		p.Completed(100+i, 0, 2, TaskStats{Duration: 10})
	}
	if p.Limit() == 0 || p.Limit() > 8 {
		t.Fatalf("limit = %d after jump, want halved (<= 8)", p.Limit())
	}
	if p.Adjustments() == 0 {
		t.Fatal("no adjustments recorded")
	}
}

func TestCADEnforcesLimit(t *testing.T) {
	p := NewCAD(NewFIFO())
	p.StageStart(tasks(100, nil), 0)
	p.limit = 2
	if d := p.Offer(0, 0); d.TaskID < 0 {
		t.Fatal("first launch blocked")
	}
	if d := p.Offer(0, 0); d.TaskID < 0 {
		t.Fatal("second launch blocked")
	}
	if d := p.Offer(0, 0); d.TaskID >= 0 {
		t.Fatal("third launch should exceed the limit")
	}
	// Other nodes are unaffected.
	if d := p.Offer(1, 0); d.TaskID < 0 {
		t.Fatal("other node blocked by node 0's limit")
	}
	// A completion frees a slot.
	p.Completed(0, 0, 1, TaskStats{Duration: 1})
	if d := p.Offer(0, 0); d.TaskID < 0 {
		t.Fatal("launch after completion blocked")
	}
}

func TestCADRelaxesOnRelief(t *testing.T) {
	p := NewCAD(NewFIFO())
	p.StageStart(tasks(400, nil), 0)
	for i := 0; i < 16; i++ {
		p.Offer(0, 0)
	}
	for i := 0; i < 16; i++ {
		p.Completed(i, 0, 1, TaskStats{Duration: 1})
	}
	feedBaseline(p, 32)
	for i := 0; i < 60; i++ {
		p.Completed(100+i, 0, 2, TaskStats{Duration: 10})
	}
	throttled := p.Limit()
	if throttled == 0 {
		t.Fatal("expected throttling first")
	}
	// Durations fall back to the typical regime: the bound relaxes.
	for i := 0; i < 200; i++ {
		p.Completed(200+i, 0, 3, TaskStats{Duration: 1})
	}
	if p.Limit() != 0 && p.Limit() <= throttled {
		t.Fatalf("limit = %d, want relaxed above %d (or lifted)", p.Limit(), throttled)
	}
}

func TestCADLimitNeverBelowOne(t *testing.T) {
	p := NewCAD(NewFIFO())
	p.StageStart(tasks(800, nil), 0)
	for i := 0; i < 4; i++ {
		p.Offer(0, 0)
	}
	// Large typical regime so the median stays anchored at 1 while a
	// congested minority halves the bound repeatedly.
	feedBaseline(p, 400)
	for i := 0; i < 120; i++ {
		p.Completed(500+i, 0, 2, TaskStats{Duration: 100})
	}
	if p.Limit() < 1 {
		t.Fatalf("limit = %d, want >= 1", p.Limit())
	}
}

func TestCADStageStartResets(t *testing.T) {
	p := NewCAD(NewFIFO())
	p.StageStart(tasks(200, nil), 0)
	for i := 0; i < 8; i++ {
		p.Offer(0, 0)
	}
	feedBaseline(p, 48)
	for i := 0; i < 40; i++ {
		p.Completed(i, 0, 2, TaskStats{Duration: 10})
	}
	if p.Limit() == 0 {
		t.Fatal("expected throttle before reset")
	}
	p.StageStart(tasks(10, nil), 100)
	if p.Limit() != 0 || p.Adjustments() != 0 {
		t.Fatal("StageStart must reset throttle state")
	}
}

func TestCADDelegatesPlacement(t *testing.T) {
	inner := NewELB(2, 0.25)
	p := NewCAD(inner)
	p.StageStart(tasks(4, nil), 0)
	p.Completed(0, 0, 1, TaskStats{IntermediateBytes: 1000, Duration: 1})
	if d := p.Offer(0, 2); d.TaskID != -1 {
		t.Fatal("CAD must respect inner ELB pause")
	}
	if d := p.Offer(1, 2); d.TaskID < 0 {
		t.Fatal("CAD blocked an allowed dispatch")
	}
	if p.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", p.Pending())
	}
}

func TestCADAdjustmentCooldown(t *testing.T) {
	p := NewCAD(NewFIFO())
	p.StageStart(tasks(400, nil), 0)
	for i := 0; i < 16; i++ {
		p.Offer(0, 0)
	}
	feedBaseline(p, 48)
	before := p.Adjustments()
	// A burst of congested completions within one window can trigger at
	// most one adjustment.
	for i := 0; i < p.window; i++ {
		p.Completed(100+i, 0, 2, TaskStats{Duration: 50})
	}
	if got := p.Adjustments() - before; got > 2 {
		t.Fatalf("adjustments in one window = %d, want <= 2 (cooldown)", got)
	}
}
