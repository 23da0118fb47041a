// Command train runs the offline profiling sweeps and model-technique
// comparison of §V: it collects per-application datasets, fits every
// technique of Figs. 6–7, prints the quality tables, and reports which
// technique each model family should deploy.
//
// Usage:
//
//	train [-app NAME] [-samples N] [-seed N]
//
// Without -app, all nine applications are swept.
package main

import (
	"flag"
	"fmt"
	"io"

	"sturgeon/internal/cmdutil"
	"sturgeon/internal/experiments"
	"sturgeon/internal/models"
	"sturgeon/internal/trace"
	"sturgeon/internal/workload"
)

func main() { cmdutil.Main(run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	var (
		app     = fs.String("app", "", "single application to profile (default: all)")
		samples = fs.Int("samples", 1500, "sweep size")
		seed    = fs.Int64("seed", 42, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	env := experiments.NewEnv(experiments.Config{Seed: *seed, Samples: *samples})

	apps := append(workload.LSServices(), workload.BEApps()...)
	if *app != "" {
		p, ok := workload.ByName(*app)
		if !ok {
			return fmt.Errorf("unknown application %q", *app)
		}
		apps = []workload.Profile{p}
	}

	for _, p := range apps {
		if p.Class == workload.LS {
			d := env.LSData(p)
			clf, err := models.CompareClassification(d.Perf, *seed)
			if err != nil {
				return err
			}
			lat, err := models.CompareRegression(d.Latency, *seed)
			if err != nil {
				return err
			}
			pow, err := models.CompareRegression(d.Power, *seed)
			if err != nil {
				return err
			}
			tbl := trace.NewTable(fmt.Sprintf("%s (LS) — %d samples", p.Name, d.Perf.Len()),
				"model", "DT", "KNN", "SV", "MLP", "LR", "deploy")
			addScores(tbl, "feasibility (accuracy)", clf)
			addScores(tbl, "latency log10 (R²)", lat)
			addScores(tbl, "power (R²)", pow)
			fmt.Fprintln(stdout, tbl)
		} else {
			d := env.BEData(p)
			thpt, err := models.CompareRegression(d.Thpt, *seed)
			if err != nil {
				return err
			}
			pow, err := models.CompareRegression(d.Power, *seed)
			if err != nil {
				return err
			}
			tbl := trace.NewTable(fmt.Sprintf("%s (BE) — %d samples", p.Name, d.Thpt.Len()),
				"model", "DT", "KNN", "SV", "MLP", "LR", "deploy")
			addScores(tbl, "throughput (R²)", thpt)
			addScores(tbl, "power (R²)", pow)
			fmt.Fprintln(stdout, tbl)
		}
	}
	return nil
}

func addScores(tbl *trace.Table, name string, scores []models.Score) {
	cells := []interface{}{name}
	for _, s := range scores {
		cells = append(cells, s.Value)
	}
	cells = append(cells, string(models.Best(scores).Technique))
	tbl.Addf(cells...)
}
