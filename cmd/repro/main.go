// Command repro regenerates every table and figure of the paper's
// evaluation on the simulated substrate.
//
// Usage:
//
//	repro [-exp all|fig2|fig3|fig6|fig7|fig9|fig10|fig11|table1|overhead|ablations|coord|placement|fleet10k]
//	      [-quick] [-seed N] [-samples N] [-duration N] [-heracles] [-out DIR]
//	      [-events PATH] [-trace PATH] [-timeline PATH] [-json] [-version]
//
// Text tables go to stdout (-json switches them to JSON documents);
// -out additionally writes CSV/TSV files for plotting.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sturgeon/internal/cmdutil"
	"sturgeon/internal/experiments"
	"sturgeon/internal/jsonio"
	"sturgeon/internal/obs"
	"sturgeon/internal/trace"
)

func main() { cmdutil.Main(run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment to run (all, fig2, fig3, fig6, fig7, fig9, fig10, fig11, table1, overhead, ablations, multi, energy, rapl, coord, placement, fleet10k)")
		quick    = fs.Bool("quick", false, "shrink sweeps and run lengths for a fast smoke run")
		samples  = fs.Int("samples", 0, "profiling sweep size (0 = default)")
		duration = fs.Int("duration", 0, "evaluation run length in seconds (0 = default 800)")
		heracles = fs.Bool("heracles", false, "include the Heracles-style baseline in fig9/fig10")
		outDir   = fs.String("out", "", "directory for CSV/TSV output (optional)")
		events   = fs.String("events", "", "write the decision-event journal (sturgeon/events/v1 JSON) to PATH")
		traceOut = fs.String("trace", "", "write the causal decision trace (sturgeon/trace/v1 JSON) to PATH")
		timeline = fs.String("timeline", "", "write the fleet time series (sturgeon/timeline/v1 JSON) to PATH")
	)
	common := cmdutil.Register(fs, 42)
	v, err := common.Parse(fs, args)
	if err != nil {
		return err
	}
	if v != "" {
		fmt.Fprintln(stdout, v)
		return nil
	}

	var sink *obs.Sink
	if *events != "" || *traceOut != "" || *timeline != "" {
		// Span ids fold in the run seed, so two repro invocations with the
		// same seed dump byte-identical traces.
		sink = obs.NewSeeded(common.Seed, 0)
	}
	env := experiments.NewEnv(experiments.Config{
		Seed: common.Seed, Samples: *samples, DurationS: *duration, Quick: *quick,
		Obs: sink,
	})

	// writeFile creates name under -out and fills it with write.
	writeFile := func(name string, write func(io.Writer) error) error {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*outDir, name))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", f.Name(), err)
		}
		return f.Close()
	}
	// The first output failure sticks: the experiments after it are
	// skipped and it is returned at the end.
	var failed error
	emit := func(name string, tbl *trace.Table) {
		if failed != nil {
			return
		}
		if common.JSON {
			failed = tbl.WriteJSON(stdout)
		} else {
			fmt.Fprintln(stdout, tbl)
		}
		if failed == nil && *outDir != "" {
			failed = writeFile(name+".csv", tbl.WriteCSV)
		}
	}
	emitSeries := func(name string, ss *trace.SeriesSet) {
		if failed == nil && *outDir != "" {
			failed = writeFile(name+".tsv", ss.WriteTSV)
		}
	}

	want := func(names ...string) bool {
		if failed != nil {
			return false
		}
		if *exp == "all" {
			return true
		}
		for _, n := range names {
			if *exp == n {
				return true
			}
		}
		return false
	}

	if want("table1") && !common.JSON {
		fmt.Fprintln(stdout, experiments.Table1())
	}
	if want("fig2") {
		_, tbl := experiments.Fig2PowerOverload(env)
		emit("fig2", tbl)
	}
	if want("fig3") {
		_, paper := experiments.Fig3PaperPairs(env)
		emit("fig3_paper_pairs", paper)
		_, frontier := experiments.Fig3FeasibleConfigs(env)
		emit("fig3_frontier", frontier)
	}
	if want("fig6") {
		_, tbl := experiments.Fig6PerformanceModels(env)
		emit("fig6", tbl)
	}
	if want("fig7") {
		_, tbl := experiments.Fig7PowerModels(env)
		emit("fig7", tbl)
	}
	if want("fig9", "fig10") {
		_, qos, thpt, sum := experiments.Fig9And10(env, *heracles)
		emit("fig9_qos", qos)
		emit("fig10_throughput", thpt)
		emit("fig9_10_summary", sum)
	}
	if want("fig11") {
		res := experiments.Fig11Trace(env)
		if !common.JSON {
			fmt.Fprintln(stdout, res.Summary)
			spark := func(ss *trace.SeriesSet) {
				fmt.Fprintln(stdout, ss.Title)
				for _, s := range ss.Series {
					fmt.Fprintf(stdout, "  %-14s %s\n", s.Name, s.Spark(72))
				}
			}
			spark(res.Sturgeon)
			spark(res.Parties)
		}
		emitSeries("fig11_sturgeon", res.Sturgeon)
		emitSeries("fig11_parties", res.Parties)
		if *outDir == "" && !common.JSON {
			fmt.Fprintln(stdout, "(use -out DIR to write the Fig. 11 time series as TSV)")
		}
	}
	if want("overhead") {
		_, tbl := experiments.Overhead(env)
		emit("overhead", tbl)
	}
	if want("ablations") {
		emit("ablation_queue_engines", experiments.AblationQueueEngines(env))
		emit("ablation_e2e_engines", experiments.AblationEndToEndEngines(env))
		emit("ablation_harvest_policy", experiments.AblationHarvestPolicy(env))
		emit("ablation_peak_vs_mean_power", experiments.AblationPeakVsMeanPower(env))
		emit("ablation_slack_bounds", experiments.AblationSlackBounds(env))
		emit("ablation_search_headroom", experiments.AblationSearchHeadroom(env))
	}
	if want("multi") {
		emit("extension_multi_app", experiments.MultiAppShowdown(env))
	}
	if want("energy") {
		emit("extension_energy", experiments.EnergyEfficiency(env, *heracles))
	}
	if want("rapl") {
		emit("extension_rapl", experiments.RAPLBaseline(env))
	}
	if want("coord") {
		emit("extension_coordinator", experiments.CoordinatedFleet(env))
	}
	if want("placement") {
		emit("extension_placement", experiments.PlacementShowdown(env))
	}
	if want("fleet10k") {
		_, tbl := experiments.Fleet10kScale(env)
		emit("extension_fleet10k", tbl)
	}
	if failed != nil {
		return failed
	}
	if *events != "" {
		if err := jsonio.WriteFile(*events, sink.Journal.Doc()); err != nil {
			return fmt.Errorf("writing events: %w", err)
		}
	}
	if *traceOut != "" {
		if err := jsonio.WriteFile(*traceOut, sink.Trace.Doc()); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if *timeline != "" {
		if err := jsonio.WriteFile(*timeline, sink.Timeline.Doc()); err != nil {
			return fmt.Errorf("writing timeline: %w", err)
		}
	}
	return nil
}
