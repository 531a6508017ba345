package perf

import (
	"encoding/json"
	"fmt"
	"os"
)

// SchemaVersion is bumped whenever the BENCH_perf.json layout changes
// incompatibly; compare refuses to mix versions.
const SchemaVersion = 1

// Report is the versioned on-disk schema of a perf run
// (BENCH_perf.json).
type Report struct {
	SchemaVersion int              `json:"schema_version"`
	CreatedUnix   int64            `json:"created_unix"`
	Env           Env              `json:"env"`
	Options       RunOptions       `json:"options"`
	Scenarios     []ScenarioResult `json:"scenarios"`
}

// ScenarioResult is one scenario's measured outcome.
type ScenarioResult struct {
	Name   string `json:"name"`
	Desc   string `json:"desc"`
	Reps   int    `json:"reps"`
	Warmup int    `json:"warmup"`
	// SamplesNs keeps the raw per-repetition wall times so compare can
	// rank-test them, not just eyeball medians.
	SamplesNs []float64 `json:"samples_ns"`
	// SamplesAllocs keeps the raw per-repetition mallocs, one per wall
	// sample, so compare can gate allocation-count regressions the same
	// way it gates wall time.
	SamplesAllocs []float64 `json:"samples_allocs"`
	Stats         Stats     `json:"stats"`
	AllocsPerOp   float64   `json:"allocs_per_op"`
	Extra         Extras    `json:"extra,omitempty"`
}

// Validate checks the report's internal consistency.
func (r *Report) Validate() error {
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("perf: schema version %d, want %d", r.SchemaVersion, SchemaVersion)
	}
	if len(r.Scenarios) == 0 {
		return fmt.Errorf("perf: report has no scenarios")
	}
	seen := map[string]bool{}
	for _, s := range r.Scenarios {
		if s.Name == "" {
			return fmt.Errorf("perf: scenario with empty name")
		}
		if seen[s.Name] {
			return fmt.Errorf("perf: duplicate scenario %q", s.Name)
		}
		seen[s.Name] = true
		if len(s.SamplesNs) == 0 {
			return fmt.Errorf("perf: scenario %q has no samples", s.Name)
		}
		if s.Stats.MedianNs <= 0 {
			return fmt.Errorf("perf: scenario %q has non-positive median", s.Name)
		}
		for _, v := range s.SamplesNs {
			if v <= 0 {
				return fmt.Errorf("perf: scenario %q has non-positive sample %g", s.Name, v)
			}
		}
		if len(s.SamplesAllocs) != len(s.SamplesNs) {
			return fmt.Errorf("perf: scenario %q has %d alloc samples for %d wall samples",
				s.Name, len(s.SamplesAllocs), len(s.SamplesNs))
		}
		for _, v := range s.SamplesAllocs {
			if v < 0 {
				return fmt.Errorf("perf: scenario %q has negative alloc sample %g", s.Name, v)
			}
		}
	}
	return nil
}

// Scenario returns the named result, or nil.
func (r *Report) Scenario(name string) *ScenarioResult {
	for i := range r.Scenarios {
		if r.Scenarios[i].Name == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// Encode marshals the report as indented JSON with a trailing newline.
func (r *Report) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	data, err := r.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadReport reads and validates a report file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return &r, nil
}
