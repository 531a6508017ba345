package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpcmr/dist"
	"hpcmr/engine"
)

// Tracing is outside-in: every span is recorded from this package,
// around a call into a layer, never inside dist or engine. Traced jobs
// are the registered jobs under a "traced:" name whose Map, Step,
// Reduce and Merge record a span and delegate; the driver side adds
// stage, task and fetch spans from an engine.FuncListener and the
// client the submit span. Untraced runs use the plain job names, so
// none of this is on their path.

// span is one timed interval. IDs are paths ("j7/map/p3/job", and
// "r1/j7/map/p3/job" once the round that collected them is known), so
// a span's parent is named without any shared counter between the
// processes that record them.
type span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    int    `json:"job"`
	// Start and End are nanoseconds on one host clock (see stamp).
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// Span names, one per layer boundary.
const (
	spanSubmit = "client.submit"
	spanStage  = "dist.driver.stage"
	spanTask   = "dist.driver.task"
	spanFetch  = "dist.shuffle.fetch"
	spanMerge  = "job.merge"
)

var clockBase = time.Now()

// stamp converts a time to host-clock nanoseconds through the
// process's monotonic clock, so a wall-clock step during a run cannot
// un-nest spans recorded in one process.
func stamp(t time.Time) int64 {
	return clockBase.UnixNano() + int64(t.Sub(clockBase))
}

// recorder keeps spans in memory until the round ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// rec is the process's recorder: executors fill it from the traced
// jobs, the benchmark process from Merge, the listener and the client.
var rec recorder

const tracedPrefix = "traced:"

// tracedSpec turns a spec into its traced twin. The job id rides in
// Path, which neither keyed-sum nor pagerank reads: the spec is the
// only state that reaches an executor.
func tracedSpec(spec dist.JobSpec, job int) dist.JobSpec {
	spec.Job = tracedPrefix + spec.Job
	spec.Path = strconv.Itoa(job)
	return spec
}

// timeCall records one span around a job function. stage is "map",
// "step<g>" or "reduce", matching what stageKey extracts from the
// driver's stage names, so the span's parent is the driver-observed
// task that dispatched it.
func timeCall(name string, spec dist.JobSpec, stage string, part int, start time.Time) {
	end := time.Now()
	job, _ := strconv.Atoi(spec.Path)
	task := fmt.Sprintf("j%d/%s/p%d", job, stage, part)
	rec.add(span{ID: task + "/job", Parent: task, Name: name, Job: job, Start: stamp(start), End: stamp(end)})
}

func registerTraced(name string) {
	inner, err := dist.LookupJob(name)
	if err != nil {
		panic(err)
	}
	j := dist.Job{
		Name: tracedPrefix + name,
		Map: func(spec dist.JobSpec, part int) (dist.MapOutput, error) {
			defer timeCall("job.map", spec, "map", part, time.Now())
			return inner.Map(spec, part)
		},
		Reduce: func(spec dist.JobSpec, part int, chunks []any) ([]byte, error) {
			defer timeCall("job.reduce", spec, "reduce", part, time.Now())
			return inner.Reduce(spec, part, chunks)
		},
		Merge: func(spec dist.JobSpec, parts [][]byte) ([]byte, error) {
			start := time.Now()
			out, err := inner.Merge(spec, parts)
			job, _ := strconv.Atoi(spec.Path)
			id := fmt.Sprintf("j%d", job)
			rec.add(span{ID: id + "/merge", Parent: id, Name: spanMerge, Job: job, Start: stamp(start), End: stamp(time.Now())})
			return out, err
		},
	}
	if inner.Step != nil {
		j.Step = func(spec dist.JobSpec, step, part int, chunks []any) (dist.MapOutput, error) {
			defer timeCall("job.step", spec, fmt.Sprintf("step%d", step), part, time.Now())
			return inner.Step(spec, step, part, chunks)
		}
	}
	dist.RegisterJob(j)
}

func init() {
	registerTraced("keyed-sum")
	registerTraced("pagerank")
}

// stageKey extracts "map", "step3" or "reduce" from a driver stage
// name ("<job>-map-<shuffle>", "<job>-step3-<shuffle>", ...).
func stageKey(stage, job string) string {
	rest := strings.TrimPrefix(stage, job+"-")
	if i := strings.LastIndex(rest, "-"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// driverTracer turns the driver runtime's listener events into spans.
// Jobs run one at a time (one closed-loop client) and a job's stages
// run one after another, so an event belongs to the job the client
// submitted last, and a fetch to the stage that is open.
type driverTracer struct {
	jobName string
	job     atomic.Int64

	mu         sync.Mutex
	stage      string
	stageStart time.Time
	gathered   map[string]bool     // tasks whose fetch span is recorded
	fetched    map[int]*fetchBytes // per job
}

// fetchBytes is one job's gathered volume by path, from OnFetch.
type fetchBytes struct{ local, remote float64 }

func newDriverTracer(jobName string) *driverTracer {
	return &driverTracer{jobName: jobName, gathered: make(map[string]bool), fetched: make(map[int]*fetchBytes)}
}

func (t *driverTracer) listener() engine.Listener {
	return engine.FuncListener{
		StageStart: func(name string, _ int) {
			t.mu.Lock()
			t.stage, t.stageStart = name, time.Now()
			t.mu.Unlock()
		},
		StageEnd: func(m engine.StageMetrics) {
			end := time.Now()
			t.mu.Lock()
			start := t.stageStart
			t.mu.Unlock()
			job := int(t.job.Load())
			id := fmt.Sprintf("j%d", job)
			rec.add(span{ID: id + "/" + stageKey(m.Name, t.jobName), Parent: id, Name: spanStage,
				Job: job, Start: stamp(start), End: stamp(end)})
		},
		TaskEnd: func(e engine.TaskEvent) {
			job := int(t.job.Load())
			stage := fmt.Sprintf("j%d/%s", job, stageKey(e.Stage, t.jobName))
			end := e.Start.Add(time.Duration(e.Duration * float64(time.Second)))
			rec.add(span{ID: fmt.Sprintf("%s/p%d", stage, e.TaskID), Parent: stage, Name: spanTask,
				Job: job, Start: stamp(e.Start), End: stamp(end)})
		},
		Fetch: func(e engine.FetchEvent) {
			// The driver reports a task's one gather once per path
			// (local, remote) with the same interval — the executor
			// timed it, the driver dated it at dispatch — so the bytes
			// add up per path and the span is recorded once.
			job := int(t.job.Load())
			t.mu.Lock()
			task := fmt.Sprintf("j%d/%s/p%d", job, stageKey(t.stage, t.jobName), e.TaskID)
			first := !t.gathered[task]
			t.gathered[task] = true
			fb := t.fetched[job]
			if fb == nil {
				fb = &fetchBytes{}
				t.fetched[job] = fb
			}
			if e.Remote {
				fb.remote += e.Bytes
			} else {
				fb.local += e.Bytes
			}
			t.mu.Unlock()
			if first {
				end := e.Start.Add(time.Duration(e.Duration * float64(time.Second)))
				rec.add(span{ID: task + "/fetch", Parent: task, Name: spanFetch,
					Job: job, Start: stamp(e.Start), End: stamp(end)})
			}
		},
	}
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// checkNesting reports the first span whose parent is missing or does
// not contain it.
func checkNesting(spans []span) error {
	byID := make(map[string]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %s ends before it starts", s.ID)
		}
		if s.Parent == "" {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %s: parent %s was never recorded", s.ID, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %s [%d,%d] is outside its parent %s [%d,%d]",
				s.ID, s.Start, s.End, p.ID, p.Start, p.End)
		}
	}
	return nil
}

// stageKind drops the superstep number: "step3" -> "step".
func stageKind(key string) string {
	return strings.TrimRight(key, "0123456789")
}

// layerTimes breaks each traced job's wall time into layers and
// returns, per metric, one value per job. The identities it rests on:
//
//	job wall   = sum of stage walls + stage_gap
//	stage wall = sum of its task spans / slots + idle slot time
//	task span  = job.* compute span + task overhead (dispatch round
//	             trip, gather, store put, result return)
//
// so residual_s, the slot time no named layer covers, is
// sum(stage walls) - sum(task spans)/slots.
func layerTimes(spans []span) map[string][]float64 {
	type acc struct {
		wall, stages, tasks float64
		m                   map[string]float64
	}
	jobs := make(map[string]*acc) // by "r<round>/j<job>"
	get := func(id string) *acc {
		key := strings.Join(strings.SplitN(id, "/", 3)[:2], "/")
		a := jobs[key]
		if a == nil {
			a = &acc{m: make(map[string]float64)}
			jobs[key] = a
		}
		return a
	}
	compute := make(map[string]float64) // task id -> compute seconds inside it
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "job.") && s.Name != spanMerge {
			compute[s.Parent] += s.seconds()
		}
	}
	for _, s := range spans {
		if s.Job == 0 {
			continue // the warm-up job
		}
		a := get(s.ID)
		switch {
		case s.Name == spanSubmit:
			a.wall = s.seconds()
		case s.Name == spanStage:
			a.stages += s.seconds()
		case s.Name == spanTask:
			a.tasks += s.seconds()
			kind := stageKind(s.Parent[strings.LastIndex(s.Parent, "/")+1:])
			a.m["dist.driver.task_overhead_s."+kind] += s.seconds() - compute[s.ID]
		case s.Name == spanFetch:
			a.m["dist.shuffle.fetch_s"] += s.seconds()
		case strings.HasPrefix(s.Name, "job."):
			a.m[s.Name+"_busy_s"] += s.seconds()
			a.m[s.Name+"_calls"]++
		}
	}
	out := make(map[string][]float64)
	for _, a := range jobs {
		if a.wall == 0 {
			continue // the submit failed; its time counts nowhere
		}
		a.m["dist.driver.stage_gap_s"] = a.wall - a.stages
		a.m["residual_s"] = a.stages - a.tasks/(executors*coresPerExecutor)
		for _, name := range spanMetrics {
			out[name] = append(out[name], a.m[name])
		}
	}
	return out
}
