// Chaos: a fault-injected fleet run. A dispatcher spreads load across
// Sturgeon-managed nodes while a deterministic, seed-driven fault plan
// sabotages them — stuck/noisy/dropped power meters, stale or missing
// latency telemetry, actuator writes that silently fail, and whole-node
// crashes the failure detector must catch, evict and re-admit. The same
// seed and fault spec always reproduce the same run byte-for-byte.
//
//	go run ./examples/chaos
//	go run ./examples/chaos -nodes 8 -seed 42 -dur 600 \
//	    -faults "power.stuck=0.01,latency.drop=0.005,crash=0.002,crash.dur=30"
package main

import (
	"flag"
	"fmt"
	"io"

	"sturgeon/internal/cluster"
	"sturgeon/internal/cmdutil"
	"sturgeon/internal/control"
	"sturgeon/internal/core"
	"sturgeon/internal/faults"
	"sturgeon/internal/hw"
	"sturgeon/internal/models"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

func main() { cmdutil.Main(run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	nodes := fs.Int("nodes", 6, "fleet size")
	seed := fs.Int64("seed", 42, "cluster seed (fault plans derive from it)")
	dur := fs.Int("dur", 600, "run length in seconds")
	spec := fs.String("faults", "default", `fault spec ("default", "" for none, or key=value list)`)
	static := fs.Bool("static", false, "skip model training and run static controllers")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fspec, err := faults.ParseSpec(*spec)
	if err != nil {
		return err
	}

	ls, be := workload.Memcached(), workload.Raytrace()
	n := sim.QuietNode(ls, be, 1)
	budget := sim.LSPeakPower(n.Spec, n.PowerParams, n.Bus, ls)

	mkCtrl := func(int) control.Controller {
		return control.Static{Cfg: hw.SoloLS(hw.DefaultSpec())}
	}
	if !*static {
		fmt.Fprintln(stdout, "training the shared predictor...")
		pred, err := models.Train(ls, be, models.TrainOptions{
			Collect: models.CollectOptions{Samples: 900, Seed: 17},
		})
		if err != nil {
			return err
		}
		mkCtrl = func(int) control.Controller {
			// Guard hardens the controller against exactly the dirt the
			// fault plan injects: implausible power readings, missing
			// latency samples and actuation that never lands.
			return core.Guard(core.New(hw.DefaultSpec(), pred, budget, core.Options{}), hw.DefaultSpec())
		}
	}

	fleet, err := cluster.New(*nodes, ls, be, budget, &cluster.LeastLoaded{}, *seed, mkCtrl)
	if err != nil {
		return err
	}
	fleet.InjectFaults(fspec, *dur)

	res := fleet.Run(workload.Diurnal(0.2, 0.8, float64(*dur)), *dur)

	fmt.Fprintf(stdout, "\n== chaos fleet: %d nodes, seed %d, %d s ==\n", *nodes, *seed, *dur)
	fmt.Fprintf(stdout, "qos_rate      %.4f\n", res.QoSRate)
	fmt.Fprintf(stdout, "be_units/s    %.0f\n", res.MeanBEThroughputUPS)
	fmt.Fprintf(stdout, "fleet_power   %.1f W (%.2f kJ, %.1f units/kJ)\n",
		res.MeanPowerW, res.EnergyKJ, res.WorkPerKJ)
	fmt.Fprintf(stdout, "lost_queries  %.0f (dispatched to crashed nodes before eviction)\n", res.LostQueries)
	fmt.Fprintf(stdout, "health        %d evictions, %d readmissions, %d unhealthy node·intervals\n",
		res.Health.Evictions, res.Health.Readmissions, res.Health.UnhealthyNodeIntervals)
	fmt.Fprintf(stdout, "faults        %s\n", res.Faults)
	fmt.Fprintln(stdout, "\nRe-running with the same -seed and -faults reproduces this output exactly.")
	return nil
}
