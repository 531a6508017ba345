// Package workload defines the paper's three benchmarks as simulated job
// specifications (Section III-B, Fig 4):
//
//   - GroupBy: a shuffle benchmark; intermediate data size equals input
//     size, computation is light key/value generation.
//   - Grep: a scan benchmark; computation is a cheap pattern match and
//     intermediate data is tiny (1 MB–200 MB in the paper's runs).
//   - Logistic Regression (LR): an iterative, computation-intensive
//     benchmark (multidimensional vector multiplication); three
//     iterations, input cached in executor memory after the first.
//
// Per-core computation rates are calibrated so the relative compute
// intensities match the paper's characterization: LR is an order of
// magnitude more computation-intensive than Grep, and GroupBy sits in
// between with shuffle dominating.
package workload

import "hpcmr/internal/core"

// Byte-size units (decimal, as the paper reports data sizes).
const (
	MB = 1e6
	GB = 1e9
)

// Per-core computation rates, bytes/s — calibrated to a JVM-era Spark
// executor: deserialization plus the per-record user function.
const (
	// GroupByRate is light tuple generation.
	GroupByRate = 150 * MB
	// GrepRate is a streaming regexp scan over deserialized records.
	GrepRate = 60 * MB
	// LRRate is dense vector arithmetic — computation-intensive.
	LRRate = 25 * MB
)

// GrepIntermediateRatio yields the paper's 1 MB–200 MB of intermediate
// data across its input range.
const GrepIntermediateRatio = 0.0005

// GroupBy returns a GroupBy job: intermediate size == input size.
// The input is generated in memory, so the interesting phases are
// storing and shuffling (Fig 4(a)).
func GroupBy(inputBytes, splitBytes float64) core.JobSpec {
	return core.JobSpec{
		Name:              "GroupBy",
		InputBytes:        inputBytes,
		SplitBytes:        splitBytes,
		ComputeRate:       GroupByRate,
		IntermediateRatio: 1.0,
		Iterations:        1,
		Input:             core.InputGenerated,
		Store:             core.StoreLocal,
	}
}

// Grep returns a Grep job reading input from the given source with a
// tiny shuffle (Fig 4(b)).
func Grep(inputBytes, splitBytes float64, input core.InputKind) core.JobSpec {
	return core.JobSpec{
		Name:              "Grep",
		InputBytes:        inputBytes,
		SplitBytes:        splitBytes,
		ComputeRate:       GrepRate,
		IntermediateRatio: GrepIntermediateRatio,
		Iterations:        1,
		Input:             input,
		Store:             core.StoreLocal,
	}
}

// LogisticRegression returns a three-iteration LR job reading input from
// the given source, cached in memory after the first iteration
// (Fig 4(c)). Each iteration is pure computation — no shuffle.
func LogisticRegression(inputBytes, splitBytes float64, input core.InputKind) core.JobSpec {
	return core.JobSpec{
		Name:              "LR",
		InputBytes:        inputBytes,
		SplitBytes:        splitBytes,
		ComputeRate:       LRRate,
		IntermediateRatio: 0,
		Iterations:        3,
		CacheInput:        true,
		Input:             input,
		Store:             core.StoreNone,
	}
}
