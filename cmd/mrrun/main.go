// Command mrrun executes real MapReduce jobs on local files with the
// RDD engine: wordcount, grep, and distinct-count. `mrrun gen` writes
// synthetic input for them.
//
// Usage:
//
//	mrrun [-top N] wordcount <file>
//	mrrun grep <pattern> <file>
//	mrrun distinct <file>
//	mrrun gen -kind text|log -lines N -out <file>
//
// Flags -executors, -cores, and -policy select the runtime shape.
// -trace FILE captures a wall-clock Chrome trace of the run (stage,
// task-attempt, and scheduler-decision spans) for chrome://tracing,
// Perfetto, or mrtrace; -trace-jsonl FILE writes the same events as
// JSONL.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"

	"hpcmr/engine"
	"hpcmr/rdd"
	"hpcmr/trace"
)

var (
	executors  = flag.Int("executors", 4, "number of executors")
	cores      = flag.Int("cores", 2, "cores per executor")
	policy     = flag.String("policy", "fifo", "scheduling policy: fifo | locality | delay | elb | cad")
	top        = flag.Int("top", 20, "wordcount: show the N most frequent words")
	parts      = flag.Int("parts", 0, "input partitions (0 = one per executor)")
	traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
	traceJSONL = flag.String("trace-jsonl", "", "write trace events as JSONL to this file")
)

// tracer is non-nil when a -trace flag asked for capture.
var tracer *trace.Tracer

func usage() {
	fmt.Fprintf(os.Stderr, "usage: mrrun [flags] wordcount|grep|distinct ...\n       mrrun gen [gen flags]\n")
	flag.PrintDefaults()
	os.Exit(2)
}

func newContext() *rdd.Context {
	var kind engine.PolicyKind
	switch *policy {
	case "fifo":
		kind = engine.FIFO
	case "locality":
		kind = engine.Locality
	case "delay":
		kind = engine.DelayScheduling
	case "elb":
		kind = engine.ELB
	case "cad":
		kind = engine.CADThrottled
	default:
		fatal("unknown policy %q", *policy)
	}
	cfg := engine.Config{
		Executors:        *executors,
		CoresPerExecutor: *cores,
		Policy:           kind,
	}
	if *traceOut != "" || *traceJSONL != "" {
		tracer = trace.NewWall(trace.Options{})
		cfg.SchedAudit = trace.SchedAudit(tracer)
	}
	ctx, err := rdd.NewContext(cfg)
	if err != nil {
		fatal("%v", err)
	}
	if tracer != nil {
		ctx.Runtime().AddListener(trace.EngineListener(tracer))
	}
	return ctx
}

// flushTrace writes the captured events to the -trace destinations.
// Call it after the job's context stops so in-flight spans have landed.
func flushTrace() {
	if tracer == nil {
		return
	}
	events := tracer.Events()
	if d := tracer.Drops(); d > 0 {
		fmt.Fprintf(os.Stderr, "mrrun: trace ring overflowed, oldest %d events dropped\n", d)
	}
	write := func(path string, fn func(io.Writer, []trace.Event) error, what string) {
		if path == "" {
			return
		}
		if err := trace.WriteFile(path, events, fn); err != nil {
			fatal("writing %s: %v", what, err)
		}
		fmt.Fprintf(os.Stderr, "# %s (%d events) written to %s\n", what, len(events), path)
	}
	write(*traceOut, trace.WriteChrome, "Chrome trace")
	write(*traceJSONL, trace.WriteJSONL, "JSONL trace")
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		genMain(os.Args[2:])
		return
	}
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}
	switch args[0] {
	case "wordcount":
		if len(args) != 2 {
			usage()
		}
		wordcount(args[1])
	case "grep":
		if len(args) != 3 {
			usage()
		}
		grep(args[1], args[2])
	case "distinct":
		if len(args) != 2 {
			usage()
		}
		distinct(args[1])
	default:
		usage()
	}
	// The subcommands stop their contexts on return, so every span has
	// been delivered by the time we flush.
	flushTrace()
}

func wordcount(path string) {
	ctx := newContext()
	defer ctx.Stop()
	lines, err := rdd.TextFile(ctx, path, *parts)
	if err != nil {
		fatal("%v", err)
	}
	words := rdd.FlatMap(lines, strings.Fields)
	pairs := rdd.Map(words, func(w string) rdd.Pair[string, int] {
		return rdd.Pair[string, int]{Key: strings.ToLower(strings.Trim(w, ".,;:!?\"'()")), Value: 1}
	})
	counts, err := rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, *executors).Collect()
	if err != nil {
		fatal("%v", err)
	}
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].Value != counts[j].Value {
			return counts[i].Value > counts[j].Value
		}
		return counts[i].Key < counts[j].Key
	})
	for i, p := range counts {
		if i >= *top {
			break
		}
		fmt.Printf("%8d  %s\n", p.Value, p.Key)
	}
	fmt.Printf("# %d distinct words; engine: %s\n", len(counts), ctx.Runtime().Metrics())
}

func grep(pattern, path string) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		fatal("bad pattern: %v", err)
	}
	ctx := newContext()
	defer ctx.Stop()
	lines, err := rdd.TextFile(ctx, path, *parts)
	if err != nil {
		fatal("%v", err)
	}
	matches, err := lines.Filter(re.MatchString).Collect()
	if err != nil {
		fatal("%v", err)
	}
	for _, l := range matches {
		fmt.Println(l)
	}
	fmt.Fprintf(os.Stderr, "# %d matching lines\n", len(matches))
}

func distinct(path string) {
	ctx := newContext()
	defer ctx.Stop()
	lines, err := rdd.TextFile(ctx, path, *parts)
	if err != nil {
		fatal("%v", err)
	}
	n, err := rdd.Distinct(lines).Count()
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%d distinct lines\n", n)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mrrun: "+format+"\n", args...)
	os.Exit(1)
}
