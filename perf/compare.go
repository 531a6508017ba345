package perf

import (
	"fmt"
	"strings"
)

// Thresholds tune the regression verdict. A scenario regresses only
// when BOTH trip: the median moved by more than MedianDelta AND the
// Mann-Whitney U test calls the shift significant at Alpha. The
// two-condition form is deliberate: the U test alone flags tiny but
// consistent shifts (noise on a quiet machine), the delta alone flags
// single-outlier medians on small sample counts.
type Thresholds struct {
	// MedianDelta is the relative median change that matters
	// (default 0.10 = 10%).
	MedianDelta float64
	// Alpha is the significance level for the U test (default 0.05).
	Alpha float64
	// AllocDelta is the relative median allocation-count change that
	// matters (default 0.10 = 10%). The alloc judgement uses the same
	// two-condition rule (delta threshold AND Mann-Whitney at Alpha)
	// over the raw per-repetition malloc counts.
	AllocDelta float64
	// ExtraDelta is the relative growth of a gated Extra that fails the
	// gate (default 0.10 = 10%). Gated extras are deterministic volume
	// counters (shuffle records/bytes moved), so they are judged on the
	// delta alone — no significance test, no samples.
	ExtraDelta float64
	// GatedExtras lists the Extras keys judged with ExtraDelta. nil
	// means DefaultGatedExtras; an explicit empty slice disables extras
	// gating. Keys absent from either side of a scenario are skipped
	// (most scenarios don't move shuffle data).
	GatedExtras []string
}

// DefaultGatedExtras are the deterministic volume dimensions the perf
// gate judges by default: the record and byte movement that map-side
// combining exists to shrink (and that a combiner regression would
// silently re-inflate), and the spill traffic of the memory-bounded
// scenario (an eviction-policy regression shows up as extra spill
// bytes or restores long before it moves wall time).
var DefaultGatedExtras = []string{
	"shuffle_records_moved", "shuffle_bytes_moved",
	"spill_bytes_written", "spill_restores",
	"shuffle_local_fetch_ratio",
}

// higherIsBetterExtras marks gated extras where a DROP is the
// regression: ratios of good outcomes (the locality hit rate), not
// volume counters. The judgement sign flips for these — growth is an
// improvement, shrinkage past ExtraDelta fails the gate. Keys absent
// from either report are still skipped, so baselines recorded before a
// ratio existed never fail against it.
var higherIsBetterExtras = map[string]bool{
	"shuffle_local_fetch_ratio": true,
}

func (t Thresholds) withDefaults() Thresholds {
	if t.MedianDelta <= 0 {
		t.MedianDelta = 0.10
	}
	if t.Alpha <= 0 {
		t.Alpha = 0.05
	}
	if t.AllocDelta <= 0 {
		t.AllocDelta = 0.10
	}
	if t.ExtraDelta <= 0 {
		t.ExtraDelta = 0.10
	}
	if t.GatedExtras == nil {
		t.GatedExtras = DefaultGatedExtras
	}
	return t
}

// Verdict statuses.
const (
	StatusOK          = "ok"          // no significant change
	StatusRegression  = "regression"  // significantly slower — gate fails
	StatusImprovement = "improvement" // significantly faster
	StatusNew         = "new"         // in current only — informational
	StatusMissing     = "missing"     // in baseline only — gate fails
)

// Verdict is one scenario's comparison outcome.
type Verdict struct {
	Name         string  `json:"name"`
	Status       string  `json:"status"`
	BaseMedianNs float64 `json:"base_median_ns,omitempty"`
	CurMedianNs  float64 `json:"cur_median_ns,omitempty"`
	// Delta is cur/base - 1 (+0.25 = 25% slower).
	Delta float64 `json:"delta"`
	// P is the two-sided Mann-Whitney p-value over the raw samples.
	P float64 `json:"p"`
	// Allocation dimension: median malloc counts, their relative
	// change and the Mann-Whitney p-value over SamplesAllocs (AllocP ==
	// 1 for missing and new scenarios).
	BaseAllocs float64 `json:"base_allocs,omitempty"`
	CurAllocs  float64 `json:"cur_allocs,omitempty"`
	AllocDelta float64 `json:"alloc_delta,omitempty"`
	AllocP     float64 `json:"alloc_p,omitempty"`
	// Extras holds the gated-extra judgements for keys both sides
	// report (empty for most scenarios).
	Extras []ExtraVerdict `json:"extras,omitempty"`
}

// ExtraVerdict is the judgement of one gated Extra of one scenario.
type ExtraVerdict struct {
	Key  string  `json:"key"`
	Base float64 `json:"base"`
	Cur  float64 `json:"cur"`
	// Delta is (cur-base)/max(base, 1): relative growth, with a zero
	// baseline judged against 1 so the value stays finite (these are
	// record/byte counters, so 1 is the smallest meaningful base).
	Delta float64 `json:"delta"`
	// Status is ok, regression, or improvement.
	Status string `json:"status"`
}

// Comparison is the full baseline-vs-current judgement.
type Comparison struct {
	Thresholds Thresholds `json:"thresholds"`
	Verdicts   []Verdict  `json:"verdicts"`
}

// Compare judges current against base scenario by scenario. Scenarios
// present only in the baseline are verdicted "missing" (a vanished
// benchmark must fail the gate, or coverage silently erodes); scenarios
// present only in current are "new".
func Compare(base, cur *Report, th Thresholds) *Comparison {
	th = th.withDefaults()
	c := &Comparison{Thresholds: th}
	for _, b := range base.Scenarios {
		v := Verdict{Name: b.Name, BaseMedianNs: b.Stats.MedianNs, P: 1, AllocP: 1}
		if s := cur.Scenario(b.Name); s == nil {
			v.Status = StatusMissing
		} else {
			v.CurMedianNs = s.Stats.MedianNs
			v.Delta = s.Stats.MedianNs/b.Stats.MedianNs - 1
			v.P = MannWhitneyU(b.SamplesNs, s.SamplesNs)
			wallSig := v.P < th.Alpha
			wallReg := wallSig && v.Delta > th.MedianDelta
			wallImp := wallSig && v.Delta < -th.MedianDelta
			v.BaseAllocs = median(b.SamplesAllocs)
			v.CurAllocs = median(s.SamplesAllocs)
			if v.BaseAllocs > 0 {
				v.AllocDelta = v.CurAllocs/v.BaseAllocs - 1
			}
			v.AllocP = MannWhitneyU(b.SamplesAllocs, s.SamplesAllocs)
			allocSig := v.AllocP < th.Alpha
			allocReg := allocSig && v.AllocDelta > th.AllocDelta
			allocImp := allocSig && v.AllocDelta < -th.AllocDelta
			var extraReg, extraImp bool
			for _, key := range th.GatedExtras {
				bv, bok := b.Extra[key]
				cv, cok := s.Extra[key]
				if !bok || !cok {
					continue
				}
				ev := ExtraVerdict{Key: key, Base: bv, Cur: cv}
				ev.Delta = (cv - bv) / max(bv, 1)
				judged := ev.Delta
				if higherIsBetterExtras[key] {
					// Direction-aware: for a hit-rate extra the failure
					// mode is the ratio falling, so the sign flips.
					judged = -judged
				}
				switch {
				case judged > th.ExtraDelta:
					ev.Status = StatusRegression
					extraReg = true
				case judged < -th.ExtraDelta:
					ev.Status = StatusImprovement
					extraImp = true
				default:
					ev.Status = StatusOK
				}
				v.Extras = append(v.Extras, ev)
			}
			switch {
			case wallReg || allocReg || extraReg:
				v.Status = StatusRegression
			case wallImp || allocImp || extraImp:
				v.Status = StatusImprovement
			default:
				v.Status = StatusOK
			}
		}
		c.Verdicts = append(c.Verdicts, v)
	}
	for _, s := range cur.Scenarios {
		if base.Scenario(s.Name) == nil {
			c.Verdicts = append(c.Verdicts, Verdict{
				Name: s.Name, Status: StatusNew, CurMedianNs: s.Stats.MedianNs, P: 1, AllocP: 1,
			})
		}
	}
	return c
}

// Regressed reports whether any verdict fails the gate (regression or
// missing scenario).
func (c *Comparison) Regressed() bool {
	for _, v := range c.Verdicts {
		if v.Status == StatusRegression || v.Status == StatusMissing {
			return true
		}
	}
	return false
}

// Table renders the verdicts as an aligned text table.
func (c *Comparison) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %12s %12s %8s %8s %9s %8s  %s\n",
		"scenario", "base med", "cur med", "delta", "p", "allocs", "alloc p", "verdict")
	for _, v := range c.Verdicts {
		mark := ""
		if v.Status == StatusRegression || v.Status == StatusMissing {
			mark = "  <-- FAIL"
		}
		allocs, allocP := "-", "-"
		if v.Status != StatusMissing && v.Status != StatusNew {
			allocs = fmt.Sprintf("%+.1f%%", v.AllocDelta*100)
			allocP = fmt.Sprintf("%.4f", v.AllocP)
		}
		fmt.Fprintf(&b, "%-36s %12s %12s %7.1f%% %8.4f %9s %8s  %s%s\n",
			v.Name, fmtNs(v.BaseMedianNs), fmtNs(v.CurMedianNs), v.Delta*100, v.P,
			allocs, allocP, v.Status, mark)
		for _, ev := range v.Extras {
			fmt.Fprintf(&b, "  %-34s %12.0f %12.0f %7.1f%%                              %s\n",
				ev.Key, ev.Base, ev.Cur, ev.Delta*100, ev.Status)
		}
	}
	fmt.Fprintf(&b, "(gate: wall median delta > %.0f%% or alloc median delta > %.0f%%, each AND Mann-Whitney p < %.2g; gated extras delta > %.0f%%; missing scenarios fail)\n",
		c.Thresholds.MedianDelta*100, c.Thresholds.AllocDelta*100, c.Thresholds.Alpha,
		c.Thresholds.ExtraDelta*100)
	return b.String()
}

// fmtNs renders nanoseconds human-readably.
func fmtNs(ns float64) string {
	switch {
	case ns == 0:
		return "-"
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
