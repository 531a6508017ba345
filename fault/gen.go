package fault

import "math/rand"

// planEvents is how many fault events Generate draws per plan.
const planEvents = 4

// GenConfig bounds the randomized plans Generate produces.
type GenConfig struct {
	// Nodes is the cluster size faults target (required).
	Nodes int
	// Horizon is the time window fault triggers land in, in backend
	// clock seconds (default 60).
	Horizon float64
	// Tasks, when > 0, makes crashes use completed-task-count triggers
	// drawn from [1, Tasks] instead of time triggers — the form that
	// replays identically across backends with different clock rates.
	Tasks int
}

// Generate derives a randomized fault plan of planEvents events
// deterministically from seed: the same (seed, cfg) always yields the
// same plan, so chaos failures reproduce from the seed alone.
func Generate(seed int64, cfg GenConfig) Plan {
	p, _ := generate(seed, cfg)
	return p
}

// generate is Generate, also counting the crash draws the crash budget
// turned into slow events.
func generate(seed int64, cfg GenConfig) (p Plan, refused int) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 60
	}
	rng := rand.New(rand.NewSource(seed))
	p.Seed = seed
	// Permanent node losses are capped so a plan cannot kill the whole
	// cluster: a quarter of the nodes, at least one.
	crashes, maxCrashes := 0, max(cfg.Nodes/4, 1)
	for i := 0; i < planEvents; i++ {
		node := rng.Intn(cfg.Nodes)
		at := rng.Float64() * cfg.Horizon
		switch rng.Intn(5) {
		case 0:
			if crashes >= maxCrashes {
				// Degrade instead of exceeding the crash budget.
				refused++
				p.Events = append(p.Events, slowEvent(rng, node, at, cfg))
				continue
			}
			crashes++
			e := Event{Kind: KindCrash, Node: node, At: at}
			if cfg.Tasks > 0 {
				e.At = 0
				e.AfterTasks = 1 + rng.Intn(cfg.Tasks)
			}
			p.Events = append(p.Events, e)
		case 1:
			p.Events = append(p.Events, slowEvent(rng, node, at, cfg))
		case 2:
			p.Events = append(p.Events, Event{
				Kind: KindFetchLoss, Node: node, At: at,
				Count: 1 + rng.Intn(4),
			})
		case 3:
			p.Events = append(p.Events, Event{
				Kind: KindTaskFail, Node: node, At: at,
				Count: 1 + rng.Intn(2),
			})
		default:
			p.Events = append(p.Events, Event{
				Kind: KindHang, Node: node, At: at,
				Duration: 0.01 + rng.Float64()*cfg.Horizon/10,
				Count:    1 + rng.Intn(2),
			})
		}
	}
	return p, refused
}

// slowEvent draws one SSD-depletion-style degradation window.
func slowEvent(rng *rand.Rand, node int, at float64, cfg GenConfig) Event {
	return Event{
		Kind: KindSlow, Node: node, At: at,
		Duration: 0.1 + rng.Float64()*cfg.Horizon/4,
		Factor:   1.5 + rng.Float64()*6,
	}
}
