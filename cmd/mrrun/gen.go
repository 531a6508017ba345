package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
)

// genMain is `mrrun gen`: it writes a synthetic dataset for the jobs
// above — a Zipf-distributed text corpus or a service log with
// timestamped leveled entries.
//
//	mrrun gen -kind text -lines 100000 -out corpus.txt
//	mrrun gen -kind log  -lines 500000 -out service.log
func genMain(args []string) {
	fs := flag.NewFlagSet("mrrun gen", flag.ExitOnError)
	var (
		kind  = fs.String("kind", "text", "dataset kind: text | log")
		lines = fs.Int("lines", 100000, "number of lines")
		out   = fs.String("out", "", "output path (required)")
		seed  = fs.Int64("seed", 1, "generator seed")
		vocab = fs.Int("vocab", 5000, "text: vocabulary size")
		width = fs.Int("width", 12, "text: words per line")
	)
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "mrrun gen: -out is required")
		os.Exit(2)
	}
	if *kind != "text" && *kind != "log" {
		fmt.Fprintf(os.Stderr, "mrrun gen: unknown -kind %q\n", *kind)
		os.Exit(2)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal("gen: %v", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	rng := rand.New(rand.NewSource(*seed))
	if *kind == "text" {
		genText(w, rng, *lines, *vocab, *width)
	} else {
		genLog(w, rng, *lines)
	}
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal("gen: %v", err)
	}
	info, _ := os.Stat(*out)
	fmt.Printf("wrote %s: %d lines, %.1f MB\n", *out, *lines, float64(info.Size())/1e6)
}

// syllables builds a deterministic pseudo-word vocabulary.
var syllables = []string{
	"ba", "co", "di", "fu", "ga", "hi", "jo", "ka", "lu", "me",
	"no", "pa", "qui", "ro", "su", "ta", "ve", "wo", "xy", "za",
}

func word(i int) string {
	w := ""
	for n := i + 1; n > 0; n /= len(syllables) {
		w += syllables[n%len(syllables)]
		if len(w) > 12 {
			break
		}
	}
	return w
}

// genText and genLog leave write errors to the caller's Flush: a
// bufio.Writer keeps its first error and refuses every later write.
func genText(w *bufio.Writer, rng *rand.Rand, lines, vocab, width int) {
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(vocab-1))
	for l := 0; l < lines; l++ {
		for c := 0; c < width; c++ {
			if c > 0 {
				w.WriteByte(' ')
			}
			w.WriteString(word(int(zipf.Uint64())))
		}
		w.WriteByte('\n')
	}
}

var (
	levels     = []string{"INFO", "INFO", "INFO", "INFO", "WARN", "INFO", "ERROR"}
	subsystems = []string{"auth", "storage", "network", "scheduler", "api", "cache"}
	verbs      = []string{"served", "rejected", "queued", "retried", "timed out on"}
)

func genLog(w *bufio.Writer, rng *rand.Rand, lines int) {
	for l := 0; l < lines; l++ {
		ts := fmt.Sprintf("2026-07-%02dT%02d:%02d:%02d",
			1+l/86400%28, l/3600%24, l/60%60, l%60)
		fmt.Fprintf(w, "%s %s [%s] request %d %s /api/v1/%s\n",
			ts,
			levels[rng.Intn(len(levels))],
			subsystems[rng.Intn(len(subsystems))],
			l,
			verbs[rng.Intn(len(verbs))],
			word(rng.Intn(200)),
		)
	}
}
