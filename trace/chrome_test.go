package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// fixtureEvents is a small deterministic trace exercising every event
// shape the exporter handles: job/stage spans on the driver row, task
// and fetch spans on node rows, and a scheduler instant.
func fixtureEvents() []Event {
	return []Event{
		{TS: 0, Dur: 9, Kind: Span, Cat: CatJob, Name: "groupby-4.0GB", Node: -1, Peer: -1, Task: -1},
		{TS: 0, Dur: 4, Kind: Span, Cat: CatStage, Name: "map/0", Node: -1, Peer: -1, Task: 16},
		{TS: 0.25, Dur: 1.5, Kind: Span, Cat: CatTask, Name: "task", Node: 0, Peer: -1,
			Stage: "map/0", Task: 3, Bytes: 128e6},
		{TS: 0.5, Dur: 2.5, Kind: Span, Cat: CatTask, Name: "task", Node: 1, Peer: -1,
			Stage: "map/0", Task: 4, Attempt: 1, Bytes: 128e6, Detail: "failed"},
		{TS: 2, Kind: Instant, Cat: CatSched, Name: "elb:pause", Node: 1, Peer: -1, Task: -1,
			Bytes: 384e6, Detail: "load=3.84e8 avg=2.56e8 threshold=0.05 t=2.000"},
		{TS: 5, Dur: 0.75, Kind: Span, Cat: CatFetch, Name: "fetch", Node: 2, Peer: 0,
			Stage: "shuffle/0", Task: 2, Bytes: 64e6},
	}
}

// TestChromeSchema validates the exported document against the
// trace_event contract chrome://tracing and Perfetto rely on: required
// keys on every entry, known phase codes, microsecond ts monotonic
// non-decreasing over non-metadata events, durations on complete
// events, and a scope on instants.
func TestChromeSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, fixtureEvents()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported document is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	lastTS := math.Inf(-1)
	for i, e := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d missing required key %q: %v", i, key, e)
			}
		}
		ph, _ := e["ph"].(string)
		switch ph {
		case "M":
			continue // metadata carries no timeline position
		case "X":
			if _, ok := e["dur"]; !ok && e["ts"] != float64(0) {
				// dur is omitempty; zero-length spans may drop it.
				if d, _ := e["dur"].(float64); d < 0 {
					t.Fatalf("event %d: negative dur", i)
				}
			}
		case "i":
			if s, _ := e["s"].(string); s != "t" && s != "p" && s != "g" {
				t.Fatalf("event %d: instant without a valid scope: %v", i, e)
			}
		default:
			t.Fatalf("event %d: unexpected phase %q", i, ph)
		}
		ts, ok := e["ts"].(float64)
		if !ok {
			t.Fatalf("event %d: ts is not a number", i)
		}
		if ts < lastTS {
			t.Fatalf("event %d: ts %v decreases below %v", i, ts, lastTS)
		}
		lastTS = ts
	}
}

// TestChromeGolden pins the exported bytes so schema drift is caught
// in review. Regenerate with: go test ./trace -run TestChromeGolden -update
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, fixtureEvents()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome export drifted from golden %s\ngot:  %s\nwant: %s",
			path, buf.Bytes(), want)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	in := fixtureEvents()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip kept %d events, want %d", len(out), len(in))
	}
	for i, e := range out {
		w := in[i]
		if e.Kind != w.Kind || e.Cat != w.Cat || e.Name != w.Name ||
			e.Node != w.Node || e.Peer != w.Peer || e.Stage != w.Stage ||
			e.Task != w.Task || e.Attempt != w.Attempt || e.Detail != w.Detail {
			t.Fatalf("event %d diverged:\nin  %+v\nout %+v", i, w, e)
		}
		if math.Abs(e.TS-w.TS) > 1e-9 || math.Abs(e.Dur-w.Dur) > 1e-9 ||
			math.Abs(e.Bytes-w.Bytes) > 1e-6 {
			t.Fatalf("event %d numeric drift:\nin  %+v\nout %+v", i, w, e)
		}
	}
}
