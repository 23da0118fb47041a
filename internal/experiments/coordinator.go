package experiments

import (
	"fmt"

	"sturgeon/internal/cluster"
	"sturgeon/internal/trace"
)

// CoordinatedFleet quantifies the fleet power-budget coordinator
// (internal/coordinator, DESIGN.md §10) on the pinned diurnal scenario:
// the same 8-node fleet, workload and total watt budget run three ways —
// a static even split, coordinated cap arbitration, and coordination
// under the control-plane chaos schedule (dropped reports plus
// whole-fleet report outages). The scenario's rotating skew means an even split strands
// watts on cold nodes while hot nodes throttle their best-effort tier;
// arbitration moves the stranded watts, so the coordinated rows must
// show strictly higher fleet BE throughput at equal-or-better QoS.
func CoordinatedFleet(env *Env) *trace.Table {
	tbl := trace.NewTable(
		fmt.Sprintf("Fleet cap arbitration vs even split (8 nodes, seed %d)", env.Cfg.Seed),
		"caps", "qos_rate", "be_ups", "mean_power_w", "work_per_kj",
		"moved_w", "fallbacks")
	rows := []struct {
		name         string
		coord, chaos bool
	}{
		{"even-split", false, false},
		{"coordinated", true, false},
		{"coordinated+chaos", true, true},
	}
	for _, row := range rows {
		o := cluster.DefaultCoordFleet(env.Cfg.Seed)
		o.Coordinated = row.coord
		o.Chaos = row.chaos
		c, err := cluster.BuildCoordFleet(o)
		if err != nil {
			panic(fmt.Sprintf("experiments: coordinated fleet: %v", err))
		}
		c.Parallelism = env.Cfg.Parallelism
		c.SetObs(env.Cfg.Obs)
		res := c.Run(o.Trace(), o.DurationS)
		tbl.Addf(row.name, res.QoSRate, res.MeanBEThroughputUPS,
			res.MeanPowerW, res.WorkPerKJ,
			res.Coord.MovedW, float64(res.Coord.Fallbacks))
	}
	return tbl
}
