// Mini characterization study on the cluster simulator: a compact
// version of the paper's headline experiments, runnable in seconds.
// It contrasts (1) intermediate-data placement across storage
// architectures, (2) delay scheduling on vs off, and (3) the two
// optimizations (ELB, CAD) against the baseline scheduler.
//
//	go run ./examples/simstudy
package main

import (
	"fmt"

	"hpcmr/sim"
)

const (
	nodes = 40
	data  = 200e9
	split = 256e6
)

// run simulates job on a fresh cluster of nodes with the given device.
func run(dev sim.Device, skew bool, job sim.Job) *sim.Result {
	c, err := sim.New(sim.Config{Nodes: nodes, Device: dev, Skew: skew})
	if err != nil {
		panic(err)
	}
	res, err := c.Run(job)
	if err != nil {
		panic(err)
	}
	return res
}

func main() {
	fmt.Printf("simulated cluster: %d nodes x 16 cores, IB QDR, Lustre 47 GB/s (scaled)\n\n", nodes)

	// 1. Where should intermediate data live?
	fmt.Println("1) GroupBy, 200 GB intermediate data placement:")
	for _, c := range []struct {
		label string
		dev   sim.Device
		store sim.Store
	}{
		{"node-local RAMDisk (data-centric)", sim.RAMDisk, ""},
		{"node-local SSD", sim.SSD, ""},
		{"Lustre, writer-served fetch ", sim.NoDevice, sim.LustreLocal},
		{"Lustre, shared direct fetch ", sim.NoDevice, sim.LustreShared},
	} {
		res := run(c.dev, false, sim.Job{InputBytes: data, SplitBytes: split, Store: c.store})
		fmt.Printf("   %-36s %7.2f s   (%s)\n", c.label, res.JobTime, res.Dissection)
	}

	// 2. Is locality worth waiting for?
	fmt.Println("\n2) Grep, 200 GB from co-located HDFS — delay scheduling:")
	for _, c := range []struct {
		label string
		pol   sim.Policy
	}{
		{"no-wait locality", sim.Locality},
		{"delay scheduling (3 s wait)", sim.DelayScheduling},
		{"pure FIFO", sim.FIFO},
	} {
		res := run(sim.RAMDisk, true, sim.Job{
			Benchmark: sim.Grep, InputBytes: data, SplitBytes: 32e6, Input: sim.HDFS, Policy: c.pol,
		})
		fmt.Printf("   %-36s %7.2f s\n", c.label, res.JobTime)
	}

	// 3. The paper's optimizations.
	fmt.Println("\n3) GroupBy on SSD with node skew — ELB and CAD:")
	for _, c := range []struct {
		label string
		pol   sim.Policy
		cad   bool
	}{
		{"baseline Spark scheduler", sim.FIFO, false},
		{"ELB (balanced intermediate)", sim.ELB, false},
		{"CAD (throttled ShuffleMapTasks)", sim.FIFO, true},
	} {
		res := run(sim.SSD, true, sim.Job{InputBytes: 3 * data, SplitBytes: split, Policy: c.pol, CAD: c.cad})
		d := res.Dissection
		fmt.Printf("   %-36s %7.2f s   storing=%.2fs shuffle=%.2fs\n",
			c.label, res.JobTime, d.Storing, d.Shuffle)
	}
}
