package engine

import (
	"fmt"
	"sort"

	"hpcmr/internal/sched"
	"hpcmr/internal/spill"
	"hpcmr/internal/storage"
)

// SpillFetchDiscount is the weight of a spilled byte relative to a
// resident one in locality scoring: a co-located read of spilled data
// is an SSD restore, not a pointer hand-off, so it is worth only the
// ratio of disk read bandwidth to memory bandwidth (~0.17 with the
// default device specs). A small resident owner can therefore outrank
// a larger owner whose partition went to disk.
func SpillFetchDiscount() float64 {
	return spill.DefaultCostModel().ReadBps / storage.MemoryBandwidth
}

// preferShare is the fraction of the top owner's effective bytes an
// executor must hold to be listed as a preferred location. 1.0 would
// admit exact ties only; 0.5 also admits near-peers, so a stage can
// spread over co-owners instead of serializing on one executor.
const preferShare = 0.5

// ReducePreferences computes, for each reduce partition fed by the
// given shuffles, the executors that own the most map-output bytes —
// the placement preference the shuffle-locality policy consumes.
// Effective bytes follow ShuffleStore.OwnerReduceBytes (resident at
// full weight, spilled at SpillFetchDiscount, driver placeholders at
// their recorded weights), summed across shuffles. Dead executors are
// excluded — a dead preferred owner must fall back to any-node
// placement and lineage recovery, never wedge a stage. An entry is nil
// when no live executor holds data for that partition. Owners are
// ordered by descending effective bytes (ties by ascending ID) and cut
// at preferShare of the leader. Each computed preference is audited
// under Policy "locality", Kind "prefer".
func (rt *Runtime) ReducePreferences(shuffleIDs []int, reduceParts int) [][]int {
	if reduceParts <= 0 {
		return nil
	}
	execs := rt.cfg.Executors
	score := make([][]float64, reduceParts)
	for r := range score {
		score[r] = make([]float64, execs)
	}
	discount := SpillFetchDiscount()
	for _, id := range shuffleIDs {
		for r, row := range rt.shuffle.OwnerReduceBytes(id, execs, discount) {
			if r >= reduceParts {
				break
			}
			for e, b := range row {
				score[r][e] += b
			}
		}
	}
	rt.execMu.Lock()
	alive := make([]bool, execs)
	for e := range alive {
		alive[e] = !rt.dead[e]
	}
	rt.execMu.Unlock()

	out := make([][]int, reduceParts)
	for r := range out {
		best := 0.0
		for e, b := range score[r] {
			if alive[e] && b > best {
				best = b
			}
		}
		if best <= 0 {
			continue
		}
		var prefs []int
		for e, b := range score[r] {
			if alive[e] && b >= best*preferShare {
				prefs = append(prefs, e)
			}
		}
		sort.SliceStable(prefs, func(i, j int) bool {
			bi, bj := score[r][prefs[i]], score[r][prefs[j]]
			if bi != bj {
				return bi > bj
			}
			return prefs[i] < prefs[j]
		})
		out[r] = prefs
		if rt.listeners.active() {
			rt.listeners.decision(sched.AuditEvent{
				Policy: "locality", Kind: "prefer", Node: prefs[0], Value: best,
				Detail: fmt.Sprintf("part=%d owners=%v shuffles=%v", r, prefs, shuffleIDs),
			})
		}
	}
	return out
}
