// Customapp: bring your own workload. This example defines a new
// latency-sensitive service (a gRPC-style inference frontend) and a new
// best-effort application (a log compactor), plugs them into the same
// pipeline — profile, train, control — and runs the co-location.
//
// It is the template for adopting the library on workloads the paper did
// not study: all Sturgeon needs is a behavioural Profile.
//
//	go run ./examples/customapp
package main

import (
	"fmt"
	"log"

	"sturgeon/internal/cache"
	"sturgeon/internal/core"
	"sturgeon/internal/hw"
	"sturgeon/internal/models"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

func main() {
	// A latency-sensitive inference frontend: medium-sized uniform
	// queries (dense math ⇒ low CPI, compact working set), 5 ms p95
	// target at up to 8 K QPS, moderately bursty arrivals.
	inference := workload.Profile{
		Name: "inference", FullName: "example inference frontend",
		Class:         workload.LS,
		CPI:           cache.CPIModel{CPIBase: 0.6, MissPenaltyNs: 75},
		MRC:           cache.MRC{MPKI1: 5, MPKIInf: 0.8, HalfWays: 2},
		Activity:      0.6,
		QoSTargetS:    0.005,
		PeakQPS:       8000,
		InstrPerQuery: 2.5e6,
		SvcCV:         0.35,
		ArrivalCV:     1.8,
	}
	// A best-effort log compactor: streaming scans (memory-heavy, high
	// compulsory miss floor), scales well across cores.
	compactor := workload.Profile{
		Name: "compactor", FullName: "example log compactor",
		Class:        workload.BE,
		CPI:          cache.CPIModel{CPIBase: 0.5, MissPenaltyNs: 75},
		MRC:          cache.MRC{MPKI1: 12, MPKIInf: 4, HalfWays: 3},
		Activity:     0.4,
		InstrPerUnit: 50e6,
		SerialFrac:   0.01,
		SyncLoss:     0.001,
		InputLevel:   3,
	}
	for _, p := range []workload.Profile{inference, compactor} {
		if err := p.Validate(); err != nil {
			log.Fatal(err)
		}
	}

	node := sim.NewNode(inference, compactor, 31)
	budget := sim.LSPeakPower(node.Spec, node.PowerParams, node.Bus, inference)
	fmt.Printf("custom pair: %s + %s | budget %.1f W | target %.1f ms\n",
		inference.Name, compactor.Name, float64(budget), inference.QoSTargetS*1e3)

	fmt.Println("profiling and training...")
	pred, err := models.Train(inference, compactor, models.TrainOptions{
		Collect: models.CollectOptions{Samples: 150, Seed: 31},
		// Let validation pick each model's technique for the new
		// workloads instead of assuming the paper's winners.
		AutoSelect: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctrl := core.New(node.Spec, pred, budget, core.Options{})
	if err := node.Apply(hw.SoloLS(node.Spec)); err != nil {
		log.Fatal(err)
	}
	runner := sim.Runner{
		Node: node, Ctrl: ctrl, Budget: budget,
		Trace:     workload.Steps([]float64{0.2, 0.5, 0.8, 0.35}, 15),
		DurationS: 60,
	}
	res := runner.Run()

	for i, st := range res.Intervals {
		if i%10 != 0 {
			continue
		}
		fmt.Printf("t=%3.0fs qps=%5.0f p95=%5.2fms power=%5.1fW compactor=%5.0f units/s %v\n",
			st.Time, st.QPS, st.P95*1e3, float64(st.Power), st.BEThroughputUPS, st.Config)
	}
	fmt.Printf("\nQoS %.2f%% | compactor ran at %.1f%% of a dedicated machine | trips %d\n",
		res.QoSRate*100, res.NormBEThroughput*100, res.BreakerTrips)
}
