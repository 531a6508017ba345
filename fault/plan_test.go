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

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Nodes: 8, Events: 12, Horizon: 30, Tasks: 50}
	a := Generate(7, cfg)
	b := Generate(7, cfg)
	ab, _ := a.Encode()
	bb, _ := b.Encode()
	if !bytes.Equal(ab, bb) {
		t.Fatalf("same seed produced different plans:\n%s\n%s", ab, bb)
	}
	c := Generate(8, cfg)
	cb, _ := c.Encode()
	if bytes.Equal(ab, cb) {
		t.Fatal("different seeds produced identical plans")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	if len(a.Events) != cfg.Events {
		t.Fatalf("generated %d events, want %d", len(a.Events), cfg.Events)
	}
}

func TestGenerateCrashBudget(t *testing.T) {
	// A quarter of 4 nodes: one crash at most.
	cfg := GenConfig{Nodes: 4, Events: 64}
	for seed := int64(0); seed < 20; seed++ {
		p := Generate(seed, cfg)
		crashes := 0
		for _, e := range p.Events {
			if e.Kind == KindCrash {
				crashes++
			}
		}
		if crashes > 1 {
			t.Fatalf("seed %d: %d crashes exceed the budget of 1", seed, crashes)
		}
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
