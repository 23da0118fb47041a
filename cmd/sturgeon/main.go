// Command sturgeon runs the Sturgeon runtime (or a baseline controller)
// on a simulated power-constrained node and prints a per-interval trace
// plus a summary — the quickest way to watch the system manage a
// co-location.
//
// Usage:
//
//	sturgeon [-ls memcached|xapian|img-dnn] [-be bs|fa|fe|rt|sp|fd]
//	         [-controller sturgeon|sturgeon-nob|parties|heracles]
//	         [-trace triangle|ramp|diurnal|constant] [-load 0.4]
//	         [-duration 400] [-seed 1] [-samples 1200] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sturgeon/internal/cmdutil"
	"sturgeon/internal/control"
	"sturgeon/internal/core"
	"sturgeon/internal/experiments"
	"sturgeon/internal/hw"
	"sturgeon/internal/models"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

func main() { cmdutil.Main(run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sturgeon", flag.ContinueOnError)
	var (
		lsName   = fs.String("ls", "memcached", "latency-sensitive service (memcached, xapian, img-dnn)")
		beName   = fs.String("be", "rt", "best-effort application (bs, fa, fe, rt, sp, fd)")
		ctrlName = fs.String("controller", "sturgeon", "controller (sturgeon, sturgeon-nob, parties, heracles)")
		traceKnd = fs.String("trace", "triangle", "load trace (triangle, ramp, diurnal, constant)")
		load     = fs.Float64("load", 0.4, "load fraction for -trace constant")
		duration = fs.Int("duration", 400, "run length in seconds")
		seed     = fs.Int64("seed", 1, "random seed")
		samples  = fs.Int("samples", 1200, "profiling sweep size for the predictor")
		verbose  = fs.Bool("v", false, "print every interval (default: every 10th)")
		traceCSV = fs.String("trace-csv", "", "replay a load trace from a CSV file (seconds,fraction)")
		modelDir = fs.String("models", "", "load a saved predictor from this directory instead of training")
		saveDir  = fs.String("save-models", "", "save the trained predictor to this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ls, ok := workload.ByName(*lsName)
	if !ok || ls.Class != workload.LS {
		return fmt.Errorf("unknown LS service %q", *lsName)
	}
	be, ok := workload.ByName(*beName)
	if !ok || be.Class != workload.BE {
		return fmt.Errorf("unknown BE application %q", *beName)
	}

	var tr workload.Trace
	if *traceCSV != "" {
		f, err := os.Open(*traceCSV)
		if err != nil {
			return err
		}
		tr, err = workload.ReplayCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		*traceKnd = "csv-replay"
	}
	switch *traceKnd {
	case "triangle":
		tr = workload.Triangle(0.2, 0.8, float64(*duration))
	case "ramp":
		tr = workload.Ramp(0.2, 0.5, float64(*duration))
	case "diurnal":
		tr = workload.Diurnal(0.2, 1.0, float64(*duration))
	case "constant":
		tr = workload.Constant(*load)
	case "csv-replay":
		// already built above
	default:
		return fmt.Errorf("unknown trace %q", *traceKnd)
	}

	env := experiments.NewEnv(experiments.Config{Seed: *seed, Samples: *samples, DurationS: *duration})
	budget := env.Budget(ls)
	var ctrl control.Controller
	if *modelDir != "" && (*ctrlName == "sturgeon" || *ctrlName == "sturgeon-nob") {
		pred, err := models.LoadPredictor(*modelDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded predictor for %s+%s from %s\n", pred.LS.Name, pred.BE.Name, *modelDir)
		ctrl = core.New(env.Spec, pred, budget,
			core.Options{DisableBalancer: *ctrlName == "sturgeon-nob"})
	} else {
		fmt.Fprintf(stdout, "training predictor for %s+%s (%d samples per app)...\n", ls.Name, be.Name, *samples)
		ctrl = env.NewController(*ctrlName, ls, be)
		if *saveDir != "" {
			if err := env.Predictor(ls, be).Save(*saveDir); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "saved predictor to %s\n", *saveDir)
		}
	}
	node := sim.NewNode(ls, be, *seed)
	if err := node.Apply(hw.SoloLS(env.Spec)); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "node: %d cores, %.1f–%.1f GHz, %d LLC ways | budget %.1f W | QoS target %.0f ms at p95\n",
		env.Spec.Cores, float64(env.Spec.FreqMin), float64(env.Spec.FreqMax), env.Spec.LLCWays,
		float64(budget), ls.QoSTargetS*1e3)

	r := sim.Runner{Node: node, Ctrl: ctrl, Budget: budget, Trace: tr, DurationS: *duration}
	res := r.Run()

	fmt.Fprintf(stdout, "%6s  %7s  %8s  %7s  %7s  %-32s\n", "t", "qps", "p95_ms", "power_w", "be_ups", "config")
	for i, st := range res.Intervals {
		if !*verbose && i%10 != 0 {
			continue
		}
		fmt.Fprintf(stdout, "%6.0f  %7.0f  %8.2f  %7.1f  %7.0f  %-32s\n",
			st.Time, st.QPS, st.P95*1e3, float64(st.Power), st.BEThroughputUPS, st.Config)
	}

	fmt.Fprintf(stdout, "\ncontroller=%s  qos_rate=%.4f  norm_be_thpt=%.4f  overload_frac=%.4f  breaker_trips=%d\n",
		res.Controller, res.QoSRate, res.NormBEThroughput, res.OverloadFrac, res.BreakerTrips)
	return nil
}
