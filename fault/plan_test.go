package fault

import (
	"bytes"
	"strings"
	"testing"
)

func TestPlanEncodeDecodeRoundTrip(t *testing.T) {
	p := Plan{Seed: 42, Events: []Event{
		{Kind: KindCrash, Node: 3, AfterTasks: 10},
		{Kind: KindSlow, Node: 1, At: 2.5, Duration: 4, Factor: 3},
		{Kind: KindFetchLoss, Node: 0, At: 1, Count: 2},
		{Kind: KindTaskFail, Node: 2, At: 0.5},
		{Kind: KindHang, Node: 4, At: 3, Duration: 0.2, Count: 2},
	}}
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("round trip not byte-stable:\n%s\n%s", data, data2)
	}
	if len(got.Events) != len(p.Events) || got.Seed != p.Seed {
		t.Fatalf("decoded %+v, want %+v", got, p)
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"empty", Plan{}, true},
		{"good crash", Plan{Events: []Event{{Kind: KindCrash, Node: 0, At: 1}}}, true},
		{"crash without trigger", Plan{Events: []Event{{Kind: KindCrash, Node: 0}}}, false},
		{"unknown kind", Plan{Events: []Event{{Kind: "meteor", Node: 0}}}, false},
		{"negative node", Plan{Events: []Event{{Kind: KindHang, Node: -1, Duration: 1}}}, false},
		{"slow factor <= 1", Plan{Events: []Event{{Kind: KindSlow, Node: 0, Duration: 1, Factor: 1}}}, false},
		{"slow without duration", Plan{Events: []Event{{Kind: KindSlow, Node: 0, Factor: 2}}}, false},
		{"hang without duration", Plan{Events: []Event{{Kind: KindHang, Node: 0}}}, false},
		{"negative at", Plan{Events: []Event{{Kind: KindTaskFail, Node: 0, At: -1}}}, false},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

// everyKindPlan joins the plans of seeds from, from+1, ... until the
// joined plan holds every fault kind and at least min events, so a
// replay exercises every decision the injector makes.
func everyKindPlan(t *testing.T, from int64, cfg GenConfig, min int) Plan {
	t.Helper()
	joined := Plan{Seed: from}
	kinds := map[Kind]bool{}
	for seed := from; len(kinds) < 5 || len(joined.Events) < min; seed++ {
		if seed-from > 100 {
			t.Fatalf("seeds %d..%d draw only kinds %v", from, seed, kinds)
		}
		for _, e := range Generate(seed, cfg).Events {
			kinds[e.Kind] = true
			joined.Events = append(joined.Events, e)
		}
	}
	return joined
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Nodes: 8, Horizon: 30, Tasks: 50}
	for seed := int64(7); seed < 12; seed++ {
		a, b := Generate(seed, cfg), Generate(seed, cfg)
		ab, _ := a.Encode()
		bb, _ := b.Encode()
		if !bytes.Equal(ab, bb) {
			t.Fatalf("seed %d produced different plans:\n%s\n%s", seed, ab, bb)
		}
		if len(a.Events) != planEvents {
			t.Fatalf("seed %d: generated %d events, want %d", seed, len(a.Events), planEvents)
		}
		cb, _ := Generate(seed+1, cfg).Encode()
		if bytes.Equal(ab, cb) {
			t.Fatalf("seeds %d and %d produced identical plans", seed, seed+1)
		}
	}
	// Joined, the seeds' plans hold every kind: each kind's draw is
	// deterministic and valid.
	a, b := everyKindPlan(t, 7, cfg, 12), everyKindPlan(t, 7, cfg, 12)
	ab, _ := a.Encode()
	bb, _ := b.Encode()
	if !bytes.Equal(ab, bb) {
		t.Fatalf("same seeds produced different plans:\n%s\n%s", ab, bb)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
}

// TestGenerateCrashBudget: a quarter of 4 nodes allows one crash per
// plan, and 2000 plans draw a crash past that cap 413 times — more than
// the 234 that 20 plans of 64 events pressed it before every plan drew
// four events.
func TestGenerateCrashBudget(t *testing.T) {
	cfg := GenConfig{Nodes: 4}
	refusedTotal := 0
	for seed := int64(0); seed < 2000; seed++ {
		p, refused := generate(seed, cfg)
		refusedTotal += refused
		crashes := 0
		for _, e := range p.Events {
			if e.Kind == KindCrash {
				crashes++
			}
		}
		if crashes > 1 {
			t.Fatalf("seed %d: %d crashes exceed the budget of 1", seed, crashes)
		}
		if refused > 0 && crashes != 1 {
			t.Fatalf("seed %d: %d crash draws refused under a budget of 1 with %d crashes", seed, refused, crashes)
		}
	}
	if refusedTotal < 234 {
		t.Fatalf("the cap turned away %d crash draws, want at least 234", refusedTotal)
	}
}

func TestCrashTimes(t *testing.T) {
	p := Plan{Events: []Event{
		{Kind: KindCrash, Node: 0, At: 5},
		{Kind: KindCrash, Node: 1, At: 2},
		{Kind: KindCrash, Node: 2, AfterTasks: 10}, // count trigger: excluded
		{Kind: KindCrash, Node: 3, At: 5},          // duplicate time: deduped
		{Kind: KindSlow, Node: 0, At: 1, Duration: 1, Factor: 2},
	}}
	got := p.CrashTimes()
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("CrashTimes = %v, want [2 5]", got)
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Seed: 9, Events: []Event{{Kind: KindCrash, Node: 2, AfterTasks: 7}}}
	s := p.String()
	if !strings.Contains(s, "seed=9") || !strings.Contains(s, "crash n2") {
		t.Fatalf("String = %q", s)
	}
}
