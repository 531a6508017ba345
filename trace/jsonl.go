package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// jsonEvent is the wire form of Event: one JSON object per line, with
// enums as strings so traces stay greppable and stable across binary
// versions.
type jsonEvent struct {
	TS      float64 `json:"ts"`
	Dur     float64 `json:"dur,omitempty"`
	Kind    string  `json:"kind"`
	Cat     string  `json:"cat"`
	Name    string  `json:"name"`
	Node    int     `json:"node"`
	Peer    int     `json:"peer"`
	Stage   string  `json:"stage,omitempty"`
	Task    int     `json:"task"`
	Attempt int     `json:"attempt,omitempty"`
	Bytes   float64 `json:"bytes,omitempty"`
	Records float64 `json:"records,omitempty"`
	Detail  string  `json:"detail,omitempty"`
}

func toWire(e Event) jsonEvent {
	return jsonEvent{
		TS: e.TS, Dur: e.Dur, Kind: e.Kind.String(), Cat: e.Cat.String(),
		Name: e.Name, Node: e.Node, Peer: e.Peer, Stage: e.Stage,
		Task: e.Task, Attempt: e.Attempt, Bytes: e.Bytes, Records: e.Records,
		Detail: e.Detail,
	}
}

func fromWire(j jsonEvent) Event {
	k := Span
	if j.Kind == "instant" {
		k = Instant
	}
	return Event{
		TS: j.TS, Dur: j.Dur, Kind: k, Cat: parseCategory(j.Cat),
		Name: j.Name, Node: j.Node, Peer: j.Peer, Stage: j.Stage,
		Task: j.Task, Attempt: j.Attempt, Bytes: j.Bytes, Records: j.Records,
		Detail: j.Detail,
	}
}

// WriteJSONL emits events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(toWire(e)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace; blank lines are skipped.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var j jsonEvent
		if err := json.Unmarshal(b, &j); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", line, err)
		}
		out = append(out, fromWire(j))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Read parses a trace in either supported format, sniffing between a
// Chrome trace_event document (JSON array, or object with a
// "traceEvents" key) and JSONL.
func Read(r io.Reader) ([]Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, nil
	}
	head := trimmed
	if len(head) > 256 {
		head = head[:256]
	}
	if trimmed[0] == '[' || bytes.Contains(head, []byte(`"traceEvents"`)) {
		return ReadChrome(bytes.NewReader(trimmed))
	}
	return ReadJSONL(bytes.NewReader(trimmed))
}

// WriteFile exports events with write (WriteChrome or WriteJSONL) to a
// file at path, creating or truncating it.
func WriteFile(path string, events []Event, write func(io.Writer, []Event) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
