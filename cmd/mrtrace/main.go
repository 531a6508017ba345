// Command mrtrace analyzes the Chrome trace_event files captured by
// mrsim, mrrun and mrchaos. It reads a trace from a file or stdin, so it
// composes directly with "mrsim -trace -":
//
//	mrsim -bench groupby -data 400e9 -skew -policy elb -trace - | mrtrace summary
//	mrtrace summary run.trace.json
//	mrtrace stragglers -n 10 run.trace.json
//
// "summary" reconstructs the paper's characterization diagnostics from
// the events alone: per-phase dissection, per-node intermediate-data
// skew (Fig 11/12), shuffle fetch breakdown (Fig 7), scheduler
// decision counts, and straggler detection. A straggler is a task that
// ran longer than sched.SpeculationMultiplier times the median task —
// the rule the dispatcher speculates by.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hpcmr/trace"
)

const usage = `usage: mrtrace <command> [flags] [file]

commands:
  summary     print the timeline analysis (skew, dissection, fetches, decisions)
  stragglers  list the slowest task attempts (flag -n limits the count)

The Chrome trace_event JSON is read from the file argument, or stdin
when omitted or "-".
`

// errUsage reports a command line mrtrace cannot parse.
var errUsage = errors.New("usage")

func main() {
	switch err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, errUsage):
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "mrtrace: %v\n", err)
		os.Exit(1)
	}
}

// run executes one mrtrace command, reading the trace from the file
// argument or stdin and writing the report to stdout.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return errUsage
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var n *int
	switch args[0] {
	case "summary":
	case "stragglers":
		n = fs.Int("n", 10, "number of stragglers to list")
	default:
		return errUsage
	}
	if err := fs.Parse(args[1:]); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return errUsage
	}
	events, err := load(fs.Args(), stdin)
	if err != nil {
		return err
	}
	a := trace.Analyze(events)
	if n == nil {
		a.WriteSummary(stdout)
	} else {
		a.WriteStragglers(stdout, *n)
	}
	return nil
}

// load reads the trace named by the remaining arguments (stdin when
// none or "-").
func load(args []string, stdin io.Reader) ([]trace.Event, error) {
	r := stdin
	if len(args) > 1 {
		return nil, errors.New("at most one trace file")
	}
	if len(args) == 1 && args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	events, err := trace.Read(r)
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, errors.New("trace holds no events")
	}
	return events, nil
}
