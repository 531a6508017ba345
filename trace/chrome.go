package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// The Chrome trace_event format (the "JSON Trace Format" consumed by
// chrome://tracing and Perfetto): a {"traceEvents": [...]} document
// whose entries carry name/cat/ph/ts/pid/tid, with ts and dur in
// microseconds. Spans map to complete events (ph "X"), decisions to
// thread-scoped instants (ph "i"), and per-node rows are threads of a
// single process, named via metadata events (ph "M").

// chromeEvent is one trace_event entry. Args round-trips the Event
// fields the base entry cannot carry.
type chromeEvent struct {
	Name  string      `json:"name"`
	Cat   string      `json:"cat"`
	Ph    string      `json:"ph"`
	TS    float64     `json:"ts"`
	Dur   float64     `json:"dur,omitempty"`
	Pid   int         `json:"pid"`
	Tid   int         `json:"tid"`
	Scope string      `json:"s,omitempty"`
	Args  *chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	Name    string  `json:"name,omitempty"` // thread_name metadata payload
	Peer    *int    `json:"peer,omitempty"`
	Stage   string  `json:"stage,omitempty"`
	Task    *int    `json:"task,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	Bytes   float64 `json:"bytes,omitempty"`
	Records float64 `json:"records,omitempty"`
	Detail  string  `json:"detail,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

// tid maps a node ID onto a Chrome thread ID; the driver (-1) becomes
// thread 0 and node n thread n+1.
func tid(node int) int { return node + 1 }

// WriteChrome emits events as a Chrome trace_event JSON document with
// ts sorted non-decreasing (metadata first).
func WriteChrome(w io.Writer, events []Event) error {
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TS < sorted[j].TS })

	doc := chromeDoc{DisplayTimeUnit: "ms"}
	// Name the process and every node row that appears in the trace.
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: &chromeArgs{Name: "hpcmr"},
	})
	seen := map[int]bool{}
	for _, e := range sorted {
		if seen[e.Node] {
			continue
		}
		seen[e.Node] = true
		name := fmt.Sprintf("node %d", e.Node)
		if e.Node < 0 {
			name = "driver"
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid(e.Node),
			Args: &chromeArgs{Name: name},
		})
	}

	for _, e := range sorted {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat.String(),
			TS:   e.TS * 1e6,
			Pid:  1,
			Tid:  tid(e.Node),
		}
		args := chromeArgs{
			Stage: e.Stage, Attempt: e.Attempt, Bytes: e.Bytes,
			Records: e.Records, Detail: e.Detail,
		}
		if e.Task >= 0 || e.Cat == CatStage {
			task := e.Task
			args.Task = &task
		}
		if e.Peer >= 0 {
			peer := e.Peer
			args.Peer = &peer
		}
		ce.Args = &args
		if e.Kind == Instant {
			ce.Ph = "i"
			ce.Scope = "t"
		} else {
			ce.Ph = "X"
			ce.Dur = e.Dur * 1e6
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteFile exports events as a Chrome trace_event document to a file
// at path, creating or truncating it.
func WriteFile(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChrome(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a Chrome trace_event document (object or bare array)
// previously written by WriteChrome back into events; metadata entries
// are skipped.
func Read(r io.Reader) ([]Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var entries []chromeEvent
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err == nil && doc.TraceEvents != nil {
		entries = doc.TraceEvents
	} else if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("trace: not a Chrome trace document: %w", err)
	}
	var out []Event
	for _, ce := range entries {
		if ce.Ph == "M" {
			continue
		}
		e := Event{
			TS:   ce.TS / 1e6,
			Dur:  ce.Dur / 1e6,
			Cat:  parseCategory(ce.Cat),
			Name: ce.Name,
			Node: ce.Tid - 1,
			Peer: -1,
			Task: -1,
		}
		if ce.Ph == "i" || ce.Ph == "I" {
			e.Kind = Instant
		}
		if ce.Args != nil {
			e.Stage = ce.Args.Stage
			e.Attempt = ce.Args.Attempt
			e.Bytes = ce.Args.Bytes
			e.Records = ce.Args.Records
			e.Detail = ce.Args.Detail
			if ce.Args.Task != nil {
				e.Task = *ce.Args.Task
			}
			if ce.Args.Peer != nil {
				e.Peer = *ce.Args.Peer
			}
		}
		out = append(out, e)
	}
	return out, nil
}
