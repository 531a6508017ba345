package trace

import (
	"testing"
	"time"

	"hpcmr/engine"
)

// TestEngineListenerTagsFetchLocality pins the local/remote tag on
// real-engine fetch spans: the distributed driver publishes one event
// per locality class, and the trace must keep them distinguishable.
func TestEngineListenerTagsFetchLocality(t *testing.T) {
	tr := NewWall()
	l := EngineListener(tr)
	start := time.Now()
	l.OnFetch(engine.FetchEvent{
		Shuffle: 3, TaskID: 1, Executor: 2, Start: start,
		Duration: 0.5, Records: 10, Bytes: 160,
	})
	l.OnFetch(engine.FetchEvent{
		Shuffle: 3, TaskID: 1, Executor: 2, Start: start,
		Duration: 0.25, Records: 4, Bytes: 64, Remote: true,
	})

	var fetches []Event
	for _, e := range tr.Events() {
		if e.Cat == CatFetch {
			fetches = append(fetches, e)
		}
	}
	if len(fetches) != 2 {
		t.Fatalf("got %d fetch spans, want 2", len(fetches))
	}
	for i, want := range []struct {
		detail  string
		records float64
	}{{"local", 10}, {"remote", 4}} {
		e := fetches[i]
		if e.Detail != want.detail || e.Records != want.records {
			t.Fatalf("fetch %d = detail %q records %v, want %q/%v",
				i, e.Detail, e.Records, want.detail, want.records)
		}
		if e.Stage != "shuffle-3" || e.Name != "fetch" || e.Node != 2 {
			t.Fatalf("fetch %d fields = %+v", i, e)
		}
	}
}
