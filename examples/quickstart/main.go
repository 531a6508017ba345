// Quickstart: word count with the memory-resident RDD library.
//
// Builds a small corpus in memory, splits it into words, counts them
// with a map-side-combining shuffle, and prints the top ten — the
// canonical first MapReduce program.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"hpcmr/engine"
	"hpcmr/rdd"
)

func main() {
	ctx, err := rdd.NewContext(engine.Config{
		Executors:        4,
		CoresPerExecutor: 2,
		Policy:           engine.FIFO,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ctx.Stop()

	corpus := []string{
		"the quick brown fox jumps over the lazy dog",
		"the dog barks and the fox runs",
		"a quick dog and a lazy fox",
		"every dog has its day and every fox its night",
		"the night is quick and the day is lazy",
	}

	lines := rdd.Parallelize(ctx, corpus, 4)
	words := rdd.FlatMap(lines, strings.Fields)
	pairs := rdd.Map(words, func(w string) rdd.Pair[string, int] {
		return rdd.Pair[string, int]{Key: w, Value: 1}
	})
	counts := rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, 4)

	result, err := counts.Collect()
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(result, func(i, j int) bool {
		if result[i].Value != result[j].Value {
			return result[i].Value > result[j].Value
		}
		return result[i].Key < result[j].Key
	})

	fmt.Println("top words:")
	for i, p := range result {
		if i == 10 {
			break
		}
		fmt.Printf("  %-8s %d\n", p.Key, p.Value)
	}

	total, err := words.Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total words: %d, distinct: %d\n", total, len(result))
	// Only counts the input fixes: which executor a task lands on, and
	// so Metrics' local= count, varies from run to run.
	m := ctx.Runtime().Metrics()
	fmt.Printf("engine: stages=%d tasks=%d failures=%d\n", len(m.Stages()), m.TasksRun(), m.TaskFailures())
}
