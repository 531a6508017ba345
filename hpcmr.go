// Package hpcmr reproduces "Characterization and Optimization of
// Memory-Resident MapReduce on HPC Systems" (Wang, Goldstone, Yu, Wang —
// IPDPS 2014).
//
// The repository contains two complementary systems:
//
//   - A real memory-resident MapReduce library: package rdd (typed,
//     lazily evaluated RDDs with narrow and shuffle transformations,
//     caching, and actions) over package engine (a local multi-executor
//     runtime with pluggable scheduling policies, task retry, and an
//     in-memory shuffle service).
//
//   - A discrete-event simulation of the paper's Hyperion testbed:
//     internal/simclock (event kernel and fluid-flow bandwidth sharing),
//     internal/netsim (InfiniBand fabric), internal/storage (RAMDisk,
//     SSD with garbage-collection dynamics, page cache), internal/lustre
//     (MDS, OSS pool with congestion collapse, distributed lock
//     manager), internal/dfs (HDFS-like co-located storage),
//     internal/cluster (nodes, cores, performance skew), and
//     internal/core (the simulated Spark-like job pipeline).
//
// The paper's contributed scheduler policies — delay scheduling as the
// studied baseline, the Enhanced Load Balancer (ELB), and
// Congestion-Aware Dispatching (CAD) — live in internal/sched, the only
// package the two systems share (fault, trace and internal/metrics are
// the tools both are judged and observed with). The real runtime —
// engine, rdd, dist and their commands — links no package of the
// simulator and decides with what it holds and measures, never with the
// simulated devices' constants. internal/experiments regenerates every
// table and figure of the evaluation; see bench_test.go, cmd/mrbench,
// and EXPERIMENTS.md.
package hpcmr
