package fault

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzFaultPlanRoundTrip checks two invariants over arbitrary seeds and
// plan contents: (1) Encode/Decode round-trips a plan to identical
// bytes, and (2) replaying the same plan through two fresh injectors
// with a fixed query script yields an identical decision trace — the
// property the chaos harness's reproducibility rests on. The plan is
// seed's generated plan followed by the plans of the seeds mix names,
// so the fuzzer picks which draws it holds, in which order and how many.
func FuzzFaultPlanRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(20), []byte{})
	f.Add(int64(42), uint8(3), uint8(0), []byte{0, 1, 2, 3})
	f.Add(int64(-9), uint8(100), uint8(255), []byte{255, 7, 7})
	f.Fuzz(func(t *testing.T, seed int64, nodes, tasks uint8, mix []byte) {
		if nodes == 0 {
			nodes = 1
		}
		cfg := GenConfig{Nodes: int(nodes), Tasks: int(tasks)}
		plan := Generate(seed, cfg)
		for _, b := range mix {
			plan.Events = append(plan.Events, Generate(seed+1+int64(b), cfg).Events...)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("generated plan invalid: %v", err)
		}

		data, err := plan.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		decoded, err := Decode(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		data2, err := decoded.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("round trip changed bytes:\n%s\n%s", data, data2)
		}

		// Same plan, two injectors, one scripted replay each: the
		// decision traces must match event for event.
		a := fmt.Sprint(decisionLog(NewInjector(plan)))
		b := fmt.Sprint(decisionLog(NewInjector(decoded)))
		if a != b {
			t.Fatalf("replay diverged:\n%s\n%s", a, b)
		}
	})
}
