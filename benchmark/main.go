// Command benchmark is the repository's benchmark: five workloads, each
// measured end to end with tracing off and, in a separate traced pass,
// layer by layer from outside the program. BENCHMARK.json at the
// repository root declares the workloads, metrics, units and bounds;
// README.md in this directory explains them.
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1|DIR
//	    one run of one workload; the last line of standard output is the
//	    result as one JSON object
//	benchmark [-seed N] [-seconds S] [-runs K] [-trace DIR] [-out FILE]
//	    every workload, each run in a fresh child process; prints one
//	    "workload metric value unit" row per metric
//	benchmark -compare A.json B.json
//	    judges B against A with the bounds of BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  float64
	traced   bool
	traceDir string // where the span file goes; "" discards the spans
	quick    bool
	root     string // the repository root
	buildDir string // build outputs and state directories live here
}

// interrupted reports whether the driver was told to stop; the
// workloads' loops give up between units of work, after which the
// deferred clean-ups run.
func (c runConfig) interrupted() error {
	if c.ctx != nil && c.ctx.Err() != nil {
		return fmt.Errorf("interrupted")
	}
	return nil
}

// workloads maps each name BENCHMARK.json declares to its runner.
var workloads = map[string]func(runConfig, *report) error{
	"node-eval":   runNodeEval,
	"fleet-step":  runFleetStep,
	"fleet-event": runFleetEvent,
	"ctl-durable": runCtlDurable,
	"ctl-mixed":   runCtlMixed,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload and print its result line (default: all, each in a child process)")
	seed := fs.Int64("seed", 20260926, "seed of every generated input")
	secs := fs.Float64("seconds", 0, "measuring window per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.String("trace", "0", "0 = end-to-end run, 1 = traced per-layer run, DIR = traced run that also writes its spans to DIR")
	quick := fs.Bool("quick", false, "smoke-test scale: tiny workloads, numbers mean nothing")
	runs := fs.Int("runs", 1, "suite mode: runs per workload, each on the next seed")
	out := fs.String("out", "", "suite mode: also write the results to this JSON file")
	compare := fs.Bool("compare", false, "compare two result files: benchmark -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *secs <= 0 {
		*secs = float64(spec.RunSeconds)
		if *quick {
			*secs = 0.5
		}
	}
	cfg := runConfig{ctx: ctx, workload: *workload, seed: *seed, seconds: *secs, quick: *quick,
		root: root, buildDir: filepath.Join(root, ".bench_build")}
	if *trace != "0" {
		cfg.traced = true
		if *trace != "1" {
			cfg.traceDir = *trace
		}
	}
	if *workload == "" {
		return runSuite(cfg, spec, *runs, *out, stdout, stderr)
	}

	fn, ok := workloads[*workload]
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	newHeader(cfg).print(stderr)
	rep := newReport()
	if err := fn(cfg, rep); err != nil {
		return fail(fmt.Errorf("%s: %w", *workload, err))
	}
	res, err := render(spec, rep, cfg.traced)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *workload, err))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// render builds the result line: every end-to-end metric of an untraced
// run, every per-layer metric of a traced one. An end-to-end metric a
// workload failed to produce is an error — they are all defined on all
// workloads — while a per-layer metric of a layer the workload never
// enters reads 0. A value nobody declared is a drift between driver and
// BENCHMARK.json and also an error.
func render(spec *benchSpec, rep *report, traced bool) (*result, error) {
	res := &result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
	}
	for _, m := range declared {
		v, ok := rep.values[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if !finite(v) || (!traced && v <= 0) {
			return nil, fmt.Errorf("metric %s has unusable value %v", m.Name, v)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	var stray []string
	for name := range rep.values {
		if _, _, ok := spec.lookup(name); !ok {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("metrics not declared in BENCHMARK.json: %v", stray)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation or check was attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}
