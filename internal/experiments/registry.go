package experiments

import (
	"fmt"
	"sort"
)

// Runner produces one reproduced table/figure.
type Runner func(Options) *Experiment

// registry maps experiment IDs to their drivers in paper order.
var registry = []struct {
	ID  string
	Run Runner
}{
	{"table1", Table1},
	{"fig5a", Fig5a},
	{"fig5b", Fig5b},
	{"fig7a", Fig7a},
	{"fig7b", Fig7b},
	{"fig8a", Fig8a},
	{"fig8b", Fig8b},
	{"fig8c", Fig8c},
	{"fig8d", Fig8d},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig12", Fig12},
	{"fig13a", Fig13a},
	{"fig13b", Fig13b},
	{"fig14", Fig14},
	// Ablations beyond the paper: quantify the design choices the
	// characterization rests on.
	{"ablation-elb", AblationELBThreshold},
	{"ablation-cad", AblationCADMechanism},
	{"ablation-wait", AblationLocalityWait},
	{"ablation-fetch", AblationFetchSize},
	{"ablation-ssdfloor", AblationSSDFloor},
}

func init() {
	if err := checkRegistry(registry); err != nil {
		panic(err)
	}
}

// checkRegistry rejects malformed registries: empty IDs, nil runners,
// and duplicate names (which would make Lookup silently shadow one
// driver with another).
func checkRegistry(entries []struct {
	ID  string
	Run Runner
}) error {
	seen := make(map[string]bool, len(entries))
	for _, r := range entries {
		if r.ID == "" {
			return fmt.Errorf("experiments: registry entry with empty ID")
		}
		if r.Run == nil {
			return fmt.Errorf("experiments: %q has no runner", r.ID)
		}
		if seen[r.ID] {
			return fmt.Errorf("experiments: duplicate registry ID %q", r.ID)
		}
		seen[r.ID] = true
	}
	return nil
}

// IDs returns all experiment IDs in paper order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, r := range registry {
		ids[i] = r.ID
	}
	return ids
}

// Lookup returns the driver for id, or an error listing valid IDs.
func Lookup(id string) (Runner, error) {
	for _, r := range registry {
		if r.ID == id {
			return r.Run, nil
		}
	}
	valid := IDs()
	sort.Strings(valid)
	return nil, fmt.Errorf("experiments: unknown id %q (valid: %v)", id, valid)
}
