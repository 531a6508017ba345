// Command mrcluster manages a distributed driver–executor cluster on
// this machine: a driver process (this one) plus N executor processes
// talking over loopback TCP, with a network shuffle service between the
// executors.
//
// Usage:
//
//	mrcluster up [-executors N] [-memory-budget BYTES] [-spill-dir DIR] [-state FILE] [-logdir DIR]
//	mrcluster run [-state FILE | -cluster ADDR] -job NAME [job flags]
//	mrcluster down [-state FILE | -cluster ADDR]
//	mrcluster chaos [-executors N] [-after-tasks K] [-memory-budget BYTES] [-logdir DIR]
//	mrcluster executor -id N -driver ADDR [-memory-budget BYTES] [-spill-dir DIR]   (internal)
//
// -memory-budget bounds each executor's resident shuffle bytes; above
// it, least-recently-used map outputs spill to local disk and are read
// back (or recomputed via lineage) on demand. -spill-dir points the
// spill files at a specific filesystem (each executor writes an
// exec-<id> subdirectory); empty means a private temp dir.
//
// `up` runs the cluster in the foreground and writes a JSON state file
// with the client address and executor PIDs; `run` and `down` find the
// cluster through that file (or an explicit -cluster address). `chaos`
// is a one-shot acceptance gate: it runs the keyed-sum job on a fresh
// cluster twice — clean, then with one executor SIGKILLed mid-stage —
// and exits non-zero unless lineage recovery makes the outputs
// byte-identical and equal to the analytic golden sums.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hpcmr/dist"
	"hpcmr/fault"
)

func usage() {
	fmt.Fprintf(os.Stderr, "usage: mrcluster up|run|down|chaos [flags]\n")
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mrcluster: "+format+"\n", args...)
	os.Exit(1)
}

// stateFile is how `run` and `down` find a cluster started by `up`.
type stateFile struct {
	ClientAddr  string `json:"clientAddr"`
	ControlAddr string `json:"controlAddr"`
	DriverPid   int    `json:"driverPid"`
	ExecutorPid []int  `json:"executorPids"`
}

func defaultStatePath() string {
	return os.TempDir() + "/mrcluster-state.json"
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mrcluster: "+format+"\n", args...)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "up":
		up(args)
	case "run":
		run(args)
	case "down":
		down(args)
	case "chaos":
		chaos(args)
	case "executor":
		executor(args)
	default:
		usage()
	}
}

// selfCommand spawns this binary back as `mrcluster executor`,
// forwarding the memory budget and spill directory so every executor
// process runs under the same bound.
func selfCommand(memoryBudget int64, spillDir string) func(id int, driverAddr string) *exec.Cmd {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	return func(id int, driverAddr string) *exec.Cmd {
		argv := []string{"executor", "-id", strconv.Itoa(id), "-driver", driverAddr}
		if memoryBudget > 0 {
			argv = append(argv, "-memory-budget", strconv.FormatInt(memoryBudget, 10))
		}
		if spillDir != "" {
			argv = append(argv, "-spill-dir", spillDir)
		}
		return exec.Command(self, argv...)
	}
}

// executor is the hidden subcommand the spawned processes run; `up`
// forwards its -memory-budget and -spill-dir into each one's argv.
func executor(args []string) {
	fs := flag.NewFlagSet("executor", flag.ExitOnError)
	id := fs.Int("id", -1, "executor ID")
	driver := fs.String("driver", "", "driver control address")
	memoryBudget := fs.Int64("memory-budget", 0,
		"resident shuffle bytes before spilling to disk (0 = unbounded)")
	spillDir := fs.String("spill-dir", "",
		"spill file directory; each executor uses an exec-<id> subdir (default: private temp)")
	fs.Parse(args)
	if *id < 0 || *driver == "" {
		fatal("executor needs -id and -driver")
	}
	e := dist.NewExecutor(dist.ExecutorConfig{
		ID: *id, DriverAddr: *driver,
		MemoryBudget: *memoryBudget, SpillDir: *spillDir,
		Logf: logf,
	})
	if err := e.Run(); err != nil {
		fatal("%v", err)
	}
}

func up(args []string) {
	fs := flag.NewFlagSet("up", flag.ExitOnError)
	executors := fs.Int("executors", 3, "cluster size")
	cores := fs.Int("cores", 2, "cores per executor")
	statePath := fs.String("state", defaultStatePath(), "cluster state file")
	logDir := fs.String("logdir", "", "executor log directory (default: temp)")
	memoryBudget := fs.Int64("memory-budget", 0,
		"per-executor resident shuffle bytes before spilling (0 = unbounded)")
	spillDir := fs.String("spill-dir", "",
		"shared spill directory; executors use exec-<id> subdirs (default: private temps)")
	fs.Parse(args)

	pc, err := dist.StartProc(dist.ProcConfig{
		Executors:        *executors,
		CoresPerExecutor: *cores,
		Command:          selfCommand(*memoryBudget, *spillDir),
		LogDir:           *logDir,
		Logf:             logf,
	})
	if err != nil {
		fatal("%v", err)
	}
	st := stateFile{
		ClientAddr:  pc.Driver.ClientAddr(),
		ControlAddr: pc.Driver.ControlAddr(),
		DriverPid:   os.Getpid(),
		ExecutorPid: pc.Pids(),
	}
	data, _ := json.MarshalIndent(st, "", "  ")
	if err := os.WriteFile(*statePath, append(data, '\n'), 0o644); err != nil {
		pc.Close()
		fatal("writing state file: %v", err)
	}
	logf("cluster up: %d executors, client %s, logs %s, state %s",
		*executors, st.ClientAddr, pc.LogDir(), *statePath)
	logf("submit with: mrcluster run -state %s -job keyed-sum", *statePath)

	// Foreground until a signal or a client-initiated shutdown.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		logf("shutting down")
	case <-pc.Driver.Done():
		logf("cluster shut down by client")
	}
	pc.Close()
	os.Remove(*statePath)
}

func clientAddr(statePath, cluster string) string {
	if cluster != "" {
		return cluster
	}
	data, err := os.ReadFile(statePath)
	if err != nil {
		fatal("no cluster: %v (start one with `mrcluster up`)", err)
	}
	var st stateFile
	if err := json.Unmarshal(data, &st); err != nil {
		fatal("state file %s: %v", statePath, err)
	}
	return st.ClientAddr
}

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	statePath := fs.String("state", defaultStatePath(), "cluster state file")
	cluster := fs.String("cluster", "", "driver client address (overrides -state)")
	job := fs.String("job", "keyed-sum", "registered job name")
	records := fs.Int64("records", 100_000, "keyed-sum: input records")
	keys := fs.Int64("keys", 64, "keyed-sum: distinct keys")
	path := fs.String("path", "", "wordcount: input file")
	mapParts := fs.Int("map-parts", 0, "map partitions (0 = 2x executors)")
	reduceParts := fs.Int("reduce-parts", 0, "reduce partitions (0 = executors)")
	top := fs.Int("top", 20, "show the N heaviest keys")
	fs.Parse(args)

	addr := clientAddr(*statePath, *cluster)
	spec := dist.JobSpec{
		Job: *job, Records: *records, Keys: *keys, Path: *path,
		MapParts: *mapParts, ReduceParts: *reduceParts,
	}
	out, err := dist.Submit(addr, spec)
	if err != nil {
		fatal("%v", err)
	}
	switch *job {
	case "wordcount":
		kvs, err := dist.DecodeSKVs(out)
		if err != nil {
			fatal("%v", err)
		}
		printTopSKV(os.Stdout, kvs, *top)
	default:
		kvs, err := dist.DecodeKVs(out)
		if err != nil {
			fatal("%v", err)
		}
		for i, kv := range kvs {
			if i >= *top {
				fmt.Printf("# ... %d more keys\n", len(kvs)-i)
				break
			}
			fmt.Printf("%8d  %d\n", kv.V, kv.K)
		}
	}
}

// printTopSKV prints the top heaviest keys — heaviest first, ties by
// key, as mrrun's wordcount does — then the distinct-key count.
func printTopSKV(w io.Writer, kvs []dist.SKV, top int) {
	slices.SortFunc(kvs, func(a, b dist.SKV) int {
		if c := cmp.Compare(b.V, a.V); c != 0 {
			return c
		}
		return strings.Compare(a.K, b.K)
	})
	for i, kv := range kvs {
		if i >= top {
			break
		}
		fmt.Fprintf(w, "%8d  %s\n", kv.V, kv.K)
	}
	fmt.Fprintf(w, "# %d distinct keys\n", len(kvs))
}

func down(args []string) {
	fs := flag.NewFlagSet("down", flag.ExitOnError)
	statePath := fs.String("state", defaultStatePath(), "cluster state file")
	cluster := fs.String("cluster", "", "driver client address (overrides -state)")
	fs.Parse(args)

	addr := clientAddr(*statePath, *cluster)
	if err := dist.ShutdownCluster(addr); err != nil {
		// The driver may already be gone; fall back to the recorded PIDs.
		logf("graceful shutdown failed (%v); killing recorded PIDs", err)
		data, rerr := os.ReadFile(*statePath)
		if rerr != nil {
			fatal("%v", err)
		}
		var st stateFile
		if json.Unmarshal(data, &st) == nil {
			for _, pid := range append(st.ExecutorPid, st.DriverPid) {
				if pid > 0 {
					syscall.Kill(pid, syscall.SIGTERM)
				}
			}
		}
	}
	os.Remove(*statePath)
	logf("cluster down")
}

// chaos is the CI acceptance gate: clean run vs. run-with-SIGKILL must
// be byte-identical and match the analytic golden sums.
func chaos(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	executors := fs.Int("executors", 3, "cluster size")
	records := fs.Int64("records", 200_000, "keyed-sum input records")
	keys := fs.Int64("keys", 64, "keyed-sum distinct keys")
	afterTasks := fs.Int("after-tasks", 3, "SIGKILL one executor after this many completed tasks")
	victim := fs.Int("victim", 1, "executor to SIGKILL")
	logDir := fs.String("logdir", "", "executor log directory (default: temp)")
	memoryBudget := fs.Int64("memory-budget", 0,
		"per-executor resident shuffle bytes before spilling (0 = unbounded)")
	fs.Parse(args)

	spec := dist.JobSpec{Job: "keyed-sum", Records: *records, Keys: *keys,
		MapParts: 2 * *executors, ReduceParts: *executors}

	runOnce := func(label string, plan fault.Plan) []byte {
		dir := ""
		if *logDir != "" {
			dir = *logDir + "/" + label
		}
		pc, err := dist.StartProc(dist.ProcConfig{
			Executors: *executors,
			Command:   selfCommand(*memoryBudget, ""),
			LogDir:    dir,
			Plan:      plan,
			Logf:      logf,
		})
		if err != nil {
			fatal("%s cluster: %v", label, err)
		}
		defer pc.Close()
		out, err := pc.Run(spec)
		if err != nil {
			fatal("%s run: %v", label, err)
		}
		if label == "chaos" {
			// Event-driven: block on the reaper's done channel instead of
			// probing the process table at a racy instant. A SIGKILLed
			// victim is observed the moment Wait returns; a survivor
			// fails deterministically at the deadline, with its log
			// attached to the failure report.
			if !pc.WaitExecutorExit(*victim, 10*time.Second) {
				fatal("victim executor %d still alive after its SIGKILL\nexecutor %d log:\n%s",
					*victim, *victim, pc.ExecutorLog(*victim))
			}
			if alive := pc.Driver.Runtime().AliveExecutors(); alive != *executors-1 {
				var logs strings.Builder
				for id := 0; id < *executors; id++ {
					fmt.Fprintf(&logs, "\nexecutor %d log:\n%s", id, pc.ExecutorLog(id))
				}
				fatal("engine reports %d alive executors, want %d%s", alive, *executors-1, logs.String())
			}
		}
		return out
	}

	clean := runOnce("clean", fault.Plan{})
	chaotic := runOnce("chaos", fault.Plan{Events: []fault.Event{
		{Kind: fault.KindCrash, Node: *victim, AfterTasks: *afterTasks},
	}})

	if !bytes.Equal(clean, chaotic) {
		fatal("output diverged: clean %d bytes, chaos %d bytes", len(clean), len(chaotic))
	}
	kvs, err := dist.DecodeKVs(chaotic)
	if err != nil {
		fatal("%v", err)
	}
	golden := dist.KeyedSumGolden(*records, *keys)
	if int64(len(kvs)) != *keys {
		fatal("got %d keys, want %d", len(kvs), *keys)
	}
	for _, kv := range kvs {
		if golden[kv.K] != kv.V {
			fatal("key %d: got %d, want %d", kv.K, kv.V, golden[kv.K])
		}
	}
	fmt.Printf("chaos gate passed: %d executors, SIGKILL executor %d after %d tasks, outputs byte-identical (%d bytes, %d keys)\n",
		*executors, *victim, *afterTasks, len(chaotic), len(kvs))
}
