// Package perf is the unified performance-benchmark subsystem: one
// scenario registry covering every measured surface of the repo (the
// incremental fluid kernel, the real engine runtime, the sharded
// shuffle store, trace capture, chaos recovery, and end-to-end
// experiment figures), one runner that executes scenarios with
// warmup and interleaved repetitions, and one versioned JSON schema
// (BENCH_perf.json) with robust statistics and an environment
// fingerprint so runs are comparable across commits.
//
// The compare side loads a baseline report and judges each scenario
// with a Mann-Whitney U test plus a median-delta threshold — the
// statistical gate every perf-sensitive PR runs against, locally and
// in CI via `mrperf compare`.
package perf

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Scale tells a scenario how big to run.
type Scale struct {
	// Short selects the CI/smoke size (seconds for the whole suite);
	// the full size is the nightly trajectory run.
	Short bool
}

// Extras are scenario-specific side measurements (event counts,
// speedups, violation counts) reported next to the timing stats.
type Extras map[string]float64

// Scenario is one registered benchmark: a deterministic body whose
// wall time and allocations the runner measures.
type Scenario struct {
	// Name identifies the scenario ("area/case", e.g. "kernel/churn-incremental").
	Name string
	// Desc is a one-line description for listings and reports.
	Desc string
	// Run executes one repetition at the given scale. The runner times
	// the whole call, so any setup a scenario wants excluded must be
	// amortized inside (all current scenarios measure setup on purpose:
	// it is part of the user-visible cost).
	Run func(sc Scale) (Extras, error)
}

// RunOptions configures the runner.
type RunOptions struct {
	// Short runs every scenario at its reduced scale.
	Short bool
	// Reps is the measured repetitions per scenario (default 5 short,
	// 15 full).
	Reps int
	// Warmup is the unmeasured runs per scenario before measurement
	// (default 1).
	Warmup int
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Reps <= 0 {
		if o.Short {
			o.Reps = 5
		} else {
			o.Reps = 15
		}
	}
	if o.Warmup <= 0 {
		o.Warmup = 1
	}
	return o
}

// RunScenarios executes the scenarios and assembles a Report. Each
// scenario is warmed up, then repetitions are interleaved round-robin
// (rep i of every scenario before rep i+1 of any) so slow drift of the
// host machine spreads evenly over scenarios instead of biasing
// whichever ran last. logf, when non-nil, receives progress lines.
func RunScenarios(scens []Scenario, o RunOptions, logf func(format string, args ...any)) (*Report, error) {
	o = o.withDefaults()
	if len(scens) == 0 {
		return nil, fmt.Errorf("perf: no scenarios selected")
	}
	say := func(format string, args ...any) {
		if logf != nil {
			logf(format, args...)
		}
	}

	results := make([]ScenarioResult, len(scens))
	sc := Scale{Short: o.Short}
	for i, s := range scens {
		results[i] = ScenarioResult{Name: s.Name, Desc: s.Desc, Reps: o.Reps, Warmup: o.Warmup}
		say("warmup %s (%d run(s))", s.Name, o.Warmup)
		for w := 0; w < o.Warmup; w++ {
			if _, _, _, err := measure(s, sc); err != nil {
				return nil, fmt.Errorf("perf: %s warmup: %w", s.Name, err)
			}
		}
	}
	for rep := 0; rep < o.Reps; rep++ {
		for i, s := range scens {
			ns, allocs, extra, err := measure(s, sc)
			if err != nil {
				return nil, fmt.Errorf("perf: %s rep %d: %w", s.Name, rep, err)
			}
			r := &results[i]
			r.SamplesNs = append(r.SamplesNs, ns)
			r.SamplesAllocs = append(r.SamplesAllocs, allocs)
			r.Extra = extra
			say("rep %d/%d %-34s %10.2f ms", rep+1, o.Reps, s.Name, ns/1e6)
		}
	}
	for i := range results {
		r := &results[i]
		r.Stats = Summarize(r.SamplesNs)
		r.AllocsPerOp = median(r.SamplesAllocs)
	}
	return &Report{
		SchemaVersion: SchemaVersion,
		CreatedUnix:   time.Now().Unix(),
		Env:           Fingerprint(),
		Options:       o,
		Scenarios:     results,
	}, nil
}

// measure times one repetition and returns (wall ns, mallocs, extras).
// A GC before the timed region keeps earlier repetitions' garbage from
// being collected inside this one.
func measure(s Scenario, sc Scale) (ns, allocs float64, extra Extras, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	extra, err = s.Run(sc)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, nil, err
	}
	return float64(elapsed.Nanoseconds()), float64(after.Mallocs - before.Mallocs), extra, nil
}

// Env is the environment fingerprint stamped into every report: the
// knobs that make timing numbers comparable (or not) across runs.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Commit     string `json:"commit,omitempty"`
	Hostname   string `json:"hostname,omitempty"`
}

// Fingerprint captures the current environment. CPU model and commit
// are best-effort (empty when unavailable).
func Fingerprint() Env {
	host, _ := os.Hostname()
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(),
		Hostname:   host,
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo (Linux);
// other platforms report empty.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// gitCommit returns the short HEAD hash, or empty outside a checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
