package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"hpcmr/internal/metrics"
	"hpcmr/internal/sched"
)

// PhaseOf classifies a stage name into the paper's three phases:
// "map" (compute), "store" (ShuffleMapTasks writing intermediate
// data), or "shuffle" (reduce-side fetch). The simulator emits
// "map/0"-style names; the real engine's shuffle-map stages are named
// "shufflemap-<id>", and anything unrecognized counts as compute.
func PhaseOf(stage string) string {
	s := strings.ToLower(stage)
	switch {
	case strings.HasPrefix(s, "shufflemap"), strings.HasPrefix(s, "store"):
		return "store"
	case strings.HasPrefix(s, "shuffle"), strings.HasPrefix(s, "fetch"):
		return "shuffle"
	default:
		return "map"
	}
}

// Analysis is the timeline reconstruction of one trace — the paper's
// characterization diagnostics recomputed from captured events alone.
type Analysis struct {
	// Events is the number of analyzed events.
	Events int
	// Jobs lists job spans in start order.
	Jobs []string
	// JobTime is the summed job-span duration (or the trace's overall
	// extent when no job spans were captured).
	JobTime float64
	// Dissection is the per-phase time breakdown from stage spans.
	Dissection metrics.Dissection
	// Nodes is the inferred cluster/executor count.
	Nodes int
	// PerNodeBytes is the per-node intermediate data volume from
	// map-phase task spans (Fig 11/12's skew quantity); when no map
	// task deposited bytes it falls back to store-phase spans.
	PerNodeBytes []float64
	// PerNodeTasks counts task attempts per node.
	PerNodeTasks []int
	// PerNodeBusy is the summed task-span seconds per node.
	PerNodeBusy []float64
	// PerNodeFetch is the summed fetch-span seconds per destination
	// node — where the Fig 7 shuffle-wait pathology shows up.
	PerNodeFetch []float64
	// SkewRatio is max/mean of PerNodeBytes (1 = perfectly balanced).
	SkewRatio float64
	// TaskDur and FetchDur summarize span durations.
	TaskDur, FetchDur metrics.Summary
	// FetchBytes and FetchCount total the shuffle fetches.
	FetchBytes float64
	FetchCount int
	// LocalFetchBytes / RemoteFetchBytes split the fetch volume by
	// path, from spans the adapter tagged "local" (executor's own
	// store, the zero-copy hand-off) or "remote" (network shuffle
	// service). Untagged spans (e.g. simulator fetches) count in
	// neither.
	LocalFetchBytes, RemoteFetchBytes float64
	// LocalFetchRatio is LocalFetchBytes over the tagged total — the
	// locality placement's headline number. Zero when no span is tagged.
	LocalFetchRatio float64
	// Failures counts task spans marked failed.
	Failures int
	// Sched counts decision-audit events by name ("elb:pause", ...).
	Sched map[string]int
	// Stragglers are task spans longer than StragglerThreshold,
	// slowest first (capped at 20).
	Stragglers []Event
	// StragglerThreshold is sched.SpeculationMultiplier × the median
	// task duration.
	StragglerThreshold float64
}

// Analyze reconstructs an Analysis from events. A task counts as a
// straggler past sched.SpeculationMultiplier times the median task
// duration — the rule the dispatcher itself speculates by.
func Analyze(events []Event) *Analysis {
	a := &Analysis{Events: len(events), Sched: map[string]int{}}
	nodes := 0
	minTS, maxEnd := 0.0, 0.0
	first := true

	var taskDurs, fetchDurs []float64
	var tasks []Event
	byPhaseBytes := map[string][]float64{} // phase -> per-node bytes (grown lazily)

	grow := func(sl []float64, n int) []float64 {
		for len(sl) <= n {
			sl = append(sl, 0)
		}
		return sl
	}

	for _, e := range events {
		if first || e.TS < minTS {
			minTS = e.TS
		}
		if first || e.End() > maxEnd {
			maxEnd = e.End()
		}
		first = false
		if e.Node >= nodes {
			nodes = e.Node + 1
		}
		if e.Peer >= nodes {
			nodes = e.Peer + 1
		}
		switch e.Cat {
		case CatJob:
			a.Jobs = append(a.Jobs, e.Name)
			a.JobTime += e.Dur
		case CatStage:
			switch PhaseOf(e.Name) {
			case "store":
				a.Dissection.Storing += e.Dur
			case "shuffle":
				a.Dissection.Shuffle += e.Dur
			default:
				a.Dissection.Compute += e.Dur
			}
		case CatTask:
			taskDurs = append(taskDurs, e.Dur)
			tasks = append(tasks, e)
			if e.Node >= 0 {
				phase := PhaseOf(e.Stage)
				byPhaseBytes[phase] = grow(byPhaseBytes[phase], e.Node)
				byPhaseBytes[phase][e.Node] += e.Bytes
			}
			if strings.Contains(e.Detail, "failed") {
				a.Failures++
			}
		case CatFetch:
			fetchDurs = append(fetchDurs, e.Dur)
			a.FetchBytes += e.Bytes
			a.FetchCount++
			switch e.Detail {
			case "local":
				a.LocalFetchBytes += e.Bytes
			case "remote":
				a.RemoteFetchBytes += e.Bytes
			}
		case CatSched:
			a.Sched[e.Name]++
		}
	}

	a.Nodes = nodes
	a.PerNodeTasks = make([]int, nodes)
	a.PerNodeBusy = make([]float64, nodes)
	a.PerNodeFetch = make([]float64, nodes)
	for _, e := range events {
		if e.Node < 0 {
			continue
		}
		switch e.Cat {
		case CatTask:
			a.PerNodeTasks[e.Node]++
			a.PerNodeBusy[e.Node] += e.Dur
		case CatFetch:
			a.PerNodeFetch[e.Node] += e.Dur
		}
	}

	// Map-phase deposits define the skew; fall back to the storing
	// phase for real-engine traces where bytes surface in shufflemap
	// stages.
	a.PerNodeBytes = grow(byPhaseBytes["map"], nodes-1)
	if sumOf(a.PerNodeBytes) == 0 && sumOf(byPhaseBytes["store"]) > 0 {
		a.PerNodeBytes = grow(byPhaseBytes["store"], nodes-1)
	}
	if mean := metrics.MeanOf(a.PerNodeBytes); mean > 0 {
		a.SkewRatio = metrics.Summarize(a.PerNodeBytes).Max / mean
	}

	if tagged := a.LocalFetchBytes + a.RemoteFetchBytes; tagged > 0 {
		a.LocalFetchRatio = a.LocalFetchBytes / tagged
	}

	a.TaskDur = metrics.Summarize(taskDurs)
	a.FetchDur = metrics.Summarize(fetchDurs)
	if a.JobTime == 0 && !first {
		a.JobTime = maxEnd - minTS
	}

	a.StragglerThreshold = a.TaskDur.Median * sched.SpeculationMultiplier
	if a.StragglerThreshold > 0 {
		for _, e := range tasks {
			if e.Dur > a.StragglerThreshold {
				a.Stragglers = append(a.Stragglers, e)
			}
		}
		sort.SliceStable(a.Stragglers, func(i, j int) bool {
			return a.Stragglers[i].Dur > a.Stragglers[j].Dur
		})
		if len(a.Stragglers) > 20 {
			a.Stragglers = a.Stragglers[:20]
		}
	}
	return a
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// WriteSummary renders the analysis as the mrtrace summary report.
func (a *Analysis) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "trace: %d events, %d nodes\n", a.Events, a.Nodes)
	if len(a.Jobs) > 0 {
		fmt.Fprintf(w, "jobs: %s\n", strings.Join(a.Jobs, ", "))
	}
	fmt.Fprintf(w, "job time: %.3f s\n", a.JobTime)
	fmt.Fprintf(w, "dissection: %s\n", a.Dissection)
	if a.TaskDur.N > 0 {
		fmt.Fprintf(w, "tasks: n=%d min=%.4fs median=%.4fs mean=%.4fs p99=%.4fs max=%.4fs failures=%d\n",
			a.TaskDur.N, a.TaskDur.Min, a.TaskDur.Median, a.TaskDur.Mean,
			a.TaskDur.P99, a.TaskDur.Max, a.Failures)
	}
	if s := metrics.Summarize(a.PerNodeBytes); s.N > 0 && s.Max > 0 {
		fmt.Fprintf(w, "intermediate per node: min=%.4g mean=%.4g max=%.4g bytes, skew max/mean=%.2fx\n",
			s.Min, s.Mean, s.Max, a.SkewRatio)
	}
	if a.FetchCount > 0 {
		fmt.Fprintf(w, "shuffle fetches: n=%d bytes=%.4g median=%.4fs p99=%.4fs max=%.4fs\n",
			a.FetchCount, a.FetchBytes, a.FetchDur.Median, a.FetchDur.P99, a.FetchDur.Max)
		if s := metrics.Summarize(a.PerNodeFetch); s.Max > 0 {
			fmt.Fprintf(w, "fetch time per node: min=%.4fs mean=%.4fs max=%.4fs\n",
				s.Min, s.Mean, s.Max)
		}
		if a.LocalFetchBytes+a.RemoteFetchBytes > 0 {
			fmt.Fprintf(w, "shuffle locality: local=%.4g remote=%.4g bytes, local ratio=%.4f\n",
				a.LocalFetchBytes, a.RemoteFetchBytes, a.LocalFetchRatio)
		}
	}
	if len(a.Sched) > 0 {
		names := make([]string, 0, len(a.Sched))
		for n := range a.Sched {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "scheduler decisions:")
		for _, n := range names {
			fmt.Fprintf(w, " %s=%d", n, a.Sched[n])
		}
		fmt.Fprintln(w)
	}
	if len(a.Stragglers) > 0 {
		fmt.Fprintf(w, "stragglers (> %.4fs): %d\n", a.StragglerThreshold, len(a.Stragglers))
	}
}

// WriteStragglers renders the top-n straggler report.
func (a *Analysis) WriteStragglers(w io.Writer, n int) {
	if n <= 0 || n > len(a.Stragglers) {
		n = len(a.Stragglers)
	}
	fmt.Fprintf(w, "median task %.4fs, threshold %.4fs, %d stragglers\n",
		a.TaskDur.Median, a.StragglerThreshold, len(a.Stragglers))
	for i := 0; i < n; i++ {
		e := a.Stragglers[i]
		fmt.Fprintf(w, "%10.4fs  %5.1fx  stage=%s task=%d attempt=%d node=%d bytes=%.4g %s\n",
			e.Dur, e.Dur/a.TaskDur.Median, e.Stage, e.Task, e.Attempt, e.Node, e.Bytes, e.Detail)
	}
}
