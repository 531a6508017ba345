package perf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file holds the CI gate logic that cmd/cigate fronts, so the
// exact same checks run locally (`go run ./cmd/cigate ...`) and in the
// workflow — replacing the inline python heredocs the workflow used to
// carry.

// CoverageFromProfile computes total statement coverage (percent) from
// a `go test -coverprofile` file, the same number `go tool cover
// -func`'s "total:" row reports: covered statements / statements.
//
// A multi-package test run writes one profile entry per block *per
// test binary*, so the same block can appear several times with
// different hit counts; blocks are deduplicated by position and count
// as covered when any entry hit them (how `go tool cover` merges).
func CoverageFromProfile(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	type block struct {
		stmts   int
		covered bool
	}
	blocks := map[string]block{}
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			if !strings.HasPrefix(line, "mode:") {
				return 0, fmt.Errorf("cover profile: missing mode header, got %q", line)
			}
			continue
		}
		// file.go:sl.sc,el.ec numStmts count
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return 0, fmt.Errorf("cover profile: malformed line %q", line)
		}
		stmts, err := strconv.Atoi(fields[1])
		if err != nil {
			return 0, fmt.Errorf("cover profile: bad statement count in %q: %w", line, err)
		}
		count, err := strconv.Atoi(fields[2])
		if err != nil {
			return 0, fmt.Errorf("cover profile: bad hit count in %q: %w", line, err)
		}
		b := blocks[fields[0]]
		b.stmts = stmts
		b.covered = b.covered || count > 0
		blocks[fields[0]] = b
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	total, covered := 0, 0
	for _, b := range blocks {
		total += b.stmts
		if b.covered {
			covered += b.stmts
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("cover profile: no statements")
	}
	return 100 * float64(covered) / float64(total), nil
}

// CheckCoverage fails when pct is below floor.
func CheckCoverage(pct, floor float64) error {
	if pct < floor {
		return fmt.Errorf("coverage %.1f%% below the %.1f%% floor", pct, floor)
	}
	return nil
}

// The kernel and trace-overhead gates read a mrperf report: the
// scenarios they compare are already in the registry, so a gate is
// arithmetic over two ScenarioResults rather than a benchmark of its
// own. A report that lacks a scenario (or an extra) a gate needs is an
// error from these functions, which cigate treats as bad usage — a
// gate must never pass because its input was not measured.

// gateScenarios looks up the named scenarios of a report, in order.
func gateScenarios(r *Report, names ...string) ([]*ScenarioResult, error) {
	out := make([]*ScenarioResult, len(names))
	for i, name := range names {
		if out[i] = r.Scenario(name); out[i] == nil {
			return nil, fmt.Errorf("perf: report has no scenario %q (run mrperf with it selected)", name)
		}
	}
	return out, nil
}

// gateExtra reads one extra a gate depends on.
func gateExtra(s *ScenarioResult, key string) (float64, error) {
	v, ok := s.Extra[key]
	if !ok {
		return 0, fmt.Errorf("perf: scenario %q reports no %q extra", s.Name, key)
	}
	return v, nil
}

// TraceOverhead computes trace capture's relative cost from a report
// holding engine/many-short-tasks and trace/capture — the same workload
// untraced and traced. It compares the minimum sample of each, the
// standard way to strip scheduler noise from a microbenchmark, and
// returns the traced run's event and task counts alongside.
func TraceOverhead(r *Report) (overhead float64, events, tasks int, err error) {
	sc, err := gateScenarios(r, "engine/many-short-tasks", "trace/capture")
	if err != nil {
		return 0, 0, 0, err
	}
	untraced, traced := sc[0], sc[1]
	ev, err := gateExtra(traced, "events")
	if err != nil {
		return 0, 0, 0, err
	}
	ta, err := gateExtra(traced, "tasks")
	if err != nil {
		return 0, 0, 0, err
	}
	return traced.Stats.MinNs/untraced.Stats.MinNs - 1, int(ev), int(ta), nil
}

// CheckTraceOverhead enforces the capture-overhead budget: tracing may
// not slow the engine by more than maxOverhead, and the traced run must
// have captured at least one event per task.
func CheckTraceOverhead(overhead float64, events, tasks int, maxOverhead float64) error {
	if overhead > maxOverhead {
		return fmt.Errorf("trace capture overhead %+.2f%% exceeds the %.0f%% budget",
			overhead*100, maxOverhead*100)
	}
	if events < tasks {
		return fmt.Errorf("traced run captured %d events for %d tasks", events, tasks)
	}
	return nil
}

// KernelSpeedup computes the incremental fluid kernel's margin over the
// brute-force oracle from a report holding both kernel/churn scenarios
// — median brute time over median incremental time — and returns the
// incremental run's peak concurrent flow count alongside.
func KernelSpeedup(r *Report) (speedup float64, peakFlows int, err error) {
	sc, err := gateScenarios(r, "kernel/churn-brute", "kernel/churn-incremental")
	if err != nil {
		return 0, 0, err
	}
	brute, inc := sc[0], sc[1]
	peak, err := gateExtra(inc, "peak_concurrent_flows")
	if err != nil {
		return 0, 0, err
	}
	return brute.Stats.MedianNs / inc.Stats.MedianNs, int(peak), nil
}

// CheckKernel enforces the incremental kernel's margin over the
// brute-force oracle and the scenario's concurrency floor.
func CheckKernel(speedup float64, peakFlows int, minSpeedup float64, minPeak int) error {
	if speedup < minSpeedup {
		return fmt.Errorf("incremental kernel speedup %.2fx below the %.1fx margin", speedup, minSpeedup)
	}
	if peakFlows < minPeak {
		return fmt.Errorf("churn scenario peaked at %d concurrent flows, want >= %d", peakFlows, minPeak)
	}
	return nil
}
