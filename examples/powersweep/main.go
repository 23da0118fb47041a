// Powersweep: how much best-effort throughput does each watt of budget
// buy, and which controller converts power headroom into work best? The
// example sweeps the node power cap from 90 % to 130 % of the paper's
// default (the LS service's peak draw) and compares Sturgeon with the
// enhanced PARTIES baseline at a fixed mid load.
//
//	go run ./examples/powersweep
package main

import (
	"fmt"
	"log"

	"sturgeon/internal/core"
	"sturgeon/internal/hw"
	"sturgeon/internal/models"
	"sturgeon/internal/parties"
	"sturgeon/internal/power"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

func main() {
	ls := workload.Memcached()
	be := workload.Swaptions() // the most power-hungry BE application

	base := sim.LSPeakPower(hw.DefaultSpec(), power.DefaultParams(),
		sim.QuietNode(ls, be, 1).Bus, ls)

	fmt.Println("training predictor...")
	pred, err := models.Train(ls, be, models.TrainOptions{
		Collect: models.CollectOptions{Samples: 300, Seed: 21},
	})
	if err != nil {
		log.Fatal(err)
	}

	run := func(budget power.Watts, name string) sim.Result {
		node := sim.NewNode(ls, be, 21)
		r := sim.Runner{
			Node: node, Budget: budget,
			Trace:     workload.Constant(0.4),
			DurationS: 180,
		}
		switch name {
		case "sturgeon":
			r.Ctrl = core.New(node.Spec, pred, budget, core.Options{})
		default:
			r.Ctrl = parties.New(node.Spec, budget)
		}
		if err := node.Apply(hw.SoloLS(node.Spec)); err != nil {
			log.Fatal(err)
		}
		return r.Run()
	}

	fmt.Printf("\n%8s  %9s  %21s  %21s\n", "", "", "sturgeon", "parties")
	fmt.Printf("%8s  %9s  %9s  %10s  %9s  %10s\n",
		"cap", "cap_w", "BE_thpt%", "QoS%", "BE_thpt%", "QoS%")
	for _, frac := range []float64{0.90, 1.00, 1.10, 1.20, 1.30} {
		budget := base * power.Watts(frac)
		st := run(budget, "sturgeon")
		pa := run(budget, "parties")
		fmt.Printf("%7.0f%%  %9.1f  %9.1f  %10.2f  %9.1f  %10.2f\n",
			frac*100, float64(budget),
			st.NormBEThroughput*100, st.QoSRate*100,
			pa.NormBEThroughput*100, pa.QoSRate*100)
	}
	fmt.Println("\nEach extra watt of cap goes to the BE side's frequency; Sturgeon's")
	fmt.Println("predictor finds the headroom immediately, the feedback baseline")
	fmt.Println("creeps toward it one DVFS step per interval.")
}
