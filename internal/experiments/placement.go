package experiments

import (
	"fmt"

	"sturgeon/internal/cluster"
	"sturgeon/internal/core"
	"sturgeon/internal/trace"
	"sturgeon/internal/workload"
)

// PlacementShowdown quantifies the fleet placement and migration engine
// (internal/placement, DESIGN.md §15) on the pinned flash-crowd
// scenario: the same 12-node fleet with heterogeneous static caps and
// the same eight BE jobs run three ways — a seeded random pairing, the
// preference-aware solver steered by the node's own steady-state
// physics (sim.Oracle), and the same solver steered by predictors
// trained on profiling sweeps (the paper's model path). Starved nodes
// shed BE frequency first, so random pairing strands frequency-hungry
// applications where the watts are not; both placed rows should show
// strictly higher fleet BE throughput at equal-or-better QoS (the
// cluster tests assert it at seed 20260806), with the migration planner
// paying warm-up penalties for every mid-run move the rotating hot spot
// forces. Quick mode skips the trained row — sweeping
// and fitting six pair models is the expensive half — and keeps the
// physics-steered comparison.
func PlacementShowdown(env *Env) *trace.Table {
	tbl := trace.NewTable(
		fmt.Sprintf("Fleet placement vs random pairing (12 nodes, seed %d)", env.Cfg.Seed),
		"pairing", "qos_rate", "be_ups", "mean_power_w", "work_per_kj",
		"moves", "warmup_lost_ups")
	rows := []struct {
		name            string
		placed, trained bool
	}{
		{"random", false, false},
		{"placed-physics", true, false},
		{"placed-trained", true, true},
	}
	for _, row := range rows {
		if row.trained && env.Cfg.Quick {
			continue
		}
		o := cluster.DefaultPlacementFleet(env.Cfg.Seed)
		o.Placed = row.placed
		if row.trained {
			o.Models = func(ls, be workload.Profile) core.Predictor {
				return env.Predictor(ls, be)
			}
		}
		c, err := cluster.BuildPlacementFleet(o)
		if err != nil {
			panic(fmt.Sprintf("experiments: placement fleet: %v", err))
		}
		c.Parallelism = env.Cfg.Parallelism
		if row.name == "placed-physics" {
			// Only the placed-physics arm is instrumented: a shared sink
			// fed by all three arms would interleave their journals and let
			// each run's timeline overwrite the last (TSeries restarts when
			// simulated time rewinds), so the exported decision trail
			// describes exactly one attributable run — the arm cmd/obsreport
			// analyzes in EXPERIMENTS.md's placement recipe.
			c.SetObs(env.Cfg.Obs)
		}
		res := c.Run(o.Trace(), o.DurationS)
		tbl.Addf(row.name, res.QoSRate, res.MeanBEThroughputUPS,
			res.MeanPowerW, res.WorkPerKJ,
			float64(res.Place.Moves), res.Place.WarmupLostUPS)
	}
	return tbl
}
