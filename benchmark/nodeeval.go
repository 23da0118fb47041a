package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"sturgeon/internal/cache"
	"sturgeon/internal/control"
	"sturgeon/internal/core"
	"sturgeon/internal/hw"
	"sturgeon/internal/models"
	"sturgeon/internal/power"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

// node-eval is the paper's §VII loop on one node: sim.Runner drives a
// noisy, interference-prone node under the 20 % → 80 % → 20 % triangle
// while core.Sturgeon (search + balancer) decides every interval from a
// trained predictor. It is the only workload where core, models and
// mlkit do the work; cluster, coordinator and des do nothing here.
//
// The scale is experiments.Config{Quick: true}'s — 600 profiling
// samples, a 240 s triangle — so that one round over the three pairs
// fits inside a ten-second measuring window about twice. Quick mode is
// the smoke-test scale.
//
// The cost of a run is the number of §V-B searches it makes, and that
// depends on the noise the node draws: the same pair costs ±5 % from one
// noise seed to the next, and ±15 % from one profiling seed to the next.
// So the predictors are always profiled on experiments.Env's default
// seed, and every unit of work draws its own node seed from --seed: a
// run averages over as many noise realisations as its window holds
// rather than repeating one.
type nodeEvalScale struct{ samples, durationS int }

// profilingSeed is experiments.Config's default seed.
const profilingSeed = 42

func nodeEvalScaleFor(quick bool) nodeEvalScale {
	if quick {
		return nodeEvalScale{samples: 120, durationS: 30}
	}
	return nodeEvalScale{samples: 600, durationS: 240}
}

// evalPairs spans the LS×BE space: a cache-light, a memory-bound and a
// compute-bound service, each with a BE partner of a different
// resource preference.
var evalPairs = [][2]func() workload.Profile{
	{workload.Memcached, workload.Raytrace},
	{workload.Xapian, workload.Ferret},
	{workload.ImgDNN, workload.Swaptions},
}

type evalPair struct {
	ls, be workload.Profile
	pred   *models.Predictor
	budget power.Watts
}

func (p evalPair) name() string { return p.ls.Name + "+" + p.be.Name }

// timed runs fn, under a span when tracing.
func timed(tr *tracer, name string, fn func()) {
	if tr == nil {
		fn()
		return
	}
	id := tr.begin(name)
	fn()
	tr.end(id)
}

// trainPairs is the workload's set-up: profile both applications of
// every pair and fit the pair's predictor, as experiments.Env does.
func trainPairs(seed int64, samples int, tr *tracer) ([]evalPair, error) {
	spec := hw.DefaultSpec()
	out := make([]evalPair, 0, len(evalPairs))
	for _, mk := range evalPairs {
		p := evalPair{ls: mk[0](), be: mk[1]()}
		opt := models.CollectOptions{Samples: samples, IntervalsPerSample: 2, Seed: seed}
		var lds models.LSDatasets
		var bds models.BEDatasets
		timed(tr, "models.sweep", func() {
			lds = models.SweepLS(p.ls, opt)
			bds = models.SweepBE(p.be, opt)
		})
		var err error
		timed(tr, "models.fit", func() {
			p.pred, err = models.TrainFromDatasets(p.ls, p.be, lds, bds, models.TrainOptions{Collect: opt})
		})
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", p.name(), err)
		}
		p.budget = sim.LSPeakPower(spec, power.DefaultParams(), cache.DefaultBus(), p.ls)
		out = append(out, p)
	}
	return out, nil
}

// evalUnit is one run of one pair: the workload's unit of work.
type evalUnit struct {
	wall, cpu float64
	res       sim.Result
	ctrl      *core.Sturgeon
	hash      string
}

// runPair mirrors experiments.Env.RunPair, with the trace ticked and
// the controller optionally decorated.
func runPair(p evalPair, nodeSeed int64, durationS int, tk *ticker,
	wrap func(*core.Sturgeon) control.Controller) (evalUnit, error) {
	spec := hw.DefaultSpec()
	node := sim.NewNode(p.ls, p.be, nodeSeed)
	if err := node.Apply(hw.SoloLS(spec)); err != nil {
		return evalUnit{}, err
	}
	u := evalUnit{ctrl: core.New(spec, p.pred, p.budget, core.Options{})}
	var ctrl control.Controller = u.ctrl
	if wrap != nil {
		ctrl = wrap(u.ctrl)
	}
	r := sim.Runner{Node: node, Ctrl: ctrl, Budget: p.budget,
		Trace:     tk.wrap(workload.Triangle(0.2, 0.8, float64(durationS))),
		DurationS: durationS}
	runtime.GC() // each unit starts from the same heap state
	cpu0, t0 := cpuSelf(), time.Now()
	u.res = r.Run()
	u.wall, u.cpu = time.Since(t0).Seconds(), (cpuSelf() - cpu0).Seconds()
	u.hash = hashSimResult(u.res)
	return u, nil
}

// hashSimResult digests everything a run computed, bit for bit: the
// headline statistics and every interval's physics and decision.
func hashSimResult(r sim.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%x %x %x %d\n", math.Float64bits(r.QoSRate),
		math.Float64bits(r.MeanBEThroughputUPS), math.Float64bits(r.OverloadFrac), r.BreakerTrips)
	for _, iv := range r.Intervals {
		fmt.Fprintf(h, "%x %x %x %x %v\n", math.Float64bits(iv.QPS), math.Float64bits(iv.TrueP95),
			math.Float64bits(iv.BEThroughputUPS), math.Float64bits(float64(iv.TruePower)), iv.Config)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hash52 folds hex digests into a number a float64 holds exactly, so a
// simulated-behaviour change shows in the metrics as a changed value.
func hash52(digests ...string) float64 {
	h := sha256.New()
	for _, d := range digests {
		fmt.Fprintln(h, d)
	}
	v, _ := strconv.ParseUint(fmt.Sprintf("%x", h.Sum(nil))[:13], 16, 64)
	return float64(v)
}

// checkSimStats counts the range checks every simulator unit passes.
func checkSimStats(rep *report, what string, qos, beUPS float64) {
	rep.check(finite(qos) && qos >= 0 && qos <= 1, "%s: qos_rate %v outside [0,1]", what, qos)
	rep.check(finite(beUPS) && beUPS > 0, "%s: be_ups %v not positive", what, beUPS)
}

func runNodeEval(cfg runConfig, rep *report) error {
	sc := nodeEvalScaleFor(cfg.quick)
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		tr.trace = "node-eval/setup"
	}

	// Set-up, several times over so its median is steady; the traced
	// pass needs only the spans of one.
	reps := 3
	if cfg.traced {
		reps = 1
	}
	var setups []float64
	var pairs []evalPair
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if pairs, err = trainPairs(profilingSeed, sc.samples, tr); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Warm-up slice: one short run pages in the code and grows the heap.
	if _, err := runPair(pairs[0], cfg.seed, min(10, sc.durationS), newTicker(16), nil); err != nil {
		return err
	}

	// Units cycle over the pairs until the window closes, at least one
	// round. Per-pair figures are combined pair by pair, so the result
	// does not depend on which pair the window happened to close on.
	n := len(pairs)
	walls, cpus, tracedWalls, p95s := make([][]float64, n), make([][]float64, n), make([][]float64, n), make([][]float64, n)
	var round []evalUnit // the first round, untraced
	var ledger evalLedger
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for u := 0; u < n || time.Since(start) < window; u++ {
		if err := cfg.interrupted(); err != nil {
			return err
		}
		i, nodeSeed := u%n, cfg.seed+int64(u+1)*7919
		tk := newTicker(sc.durationS)
		unit, err := runPair(pairs[i], nodeSeed, sc.durationS, tk, nil)
		if err != nil {
			return err
		}
		gaps := tk.gapsUS()
		sort.Float64s(gaps)
		p95s[i] = append(p95s[i], quantile(gaps, 0.95))
		walls[i], cpus[i] = append(walls[i], unit.wall), append(cpus[i], unit.cpu)
		checkSimStats(rep, pairs[i].name(), unit.res.QoSRate, unit.res.MeanBEThroughputUPS)
		if u < n {
			round = append(round, unit)
		}
		if !cfg.traced {
			continue
		}

		// Traced twin of the same unit, alternating with the untraced one
		// so both see the same machine conditions. The ledger is read off
		// the first round: a fixed amount of work, whatever the window.
		tr.trace = fmt.Sprintf("node-eval/%s#%d", pairs[i].name(), u/n)
		var wrap func(*core.Sturgeon) control.Controller
		if u < n {
			wrap = func(s *core.Sturgeon) control.Controller { return ledger.wrap(s, pairs[i], i, tr) }
		} else {
			wrap = func(s *core.Sturgeon) control.Controller {
				return &tracedController{inner: s, tr: tr, name: "core.decide"}
			}
		}
		id := tr.begin("sim.run")
		twin, err := runPair(pairs[i], nodeSeed, sc.durationS, newTicker(sc.durationS), wrap)
		tr.end(id)
		if err != nil {
			return err
		}
		tracedWalls[i] = append(tracedWalls[i], twin.wall)
		rep.check(twin.hash == unit.hash, "%s: traced run diverged from the untraced one", pairs[i].name())
		if u < n {
			ledger.searchCalls += float64(twin.ctrl.Searches)
			ledger.balancerCalls += float64(twin.ctrl.BalancerSteps)
		}
		if u == n-1 {
			ledger.report(rep, tr)
		}
	}

	var wall, cpu, tracedWall, p95 float64
	for i := range pairs {
		wall, cpu = wall+mean(walls[i]), cpu+mean(cpus[i])
		tracedWall += mean(tracedWalls[i])
		p95 += median(p95s[i]) / float64(n)
	}
	simS := float64(n * sc.durationS)
	rep.set("setup_s", median(setups))
	rep.set("ops_per_s", simS/wall)
	rep.set("op_p95_us", p95)
	rep.set("cpu_us_per_op", cpu/simS*1e6)
	if err := rep.setPeakRSS("self"); err != nil || !cfg.traced {
		return err
	}

	var qos, be float64
	var hashes []string
	for _, u := range round {
		qos += u.res.QoSRate / float64(n)
		be += u.res.MeanBEThroughputUPS / float64(n)
		hashes = append(hashes, u.hash)
	}
	rep.set("sim.qos_rate", qos)
	rep.set("sim.be_ups", be)
	rep.set("sim.summary_hash", hash52(hashes...))
	rep.set("trace.overhead_frac", tracedWall/wall-1)
	replaySearch(rep, pairs, ledger.searches)
	return tr.finish(cfg, rep)
}

// evalLedger is what the controller decorator records over the first
// traced round of node-eval: per-decision latency, and for each
// decision that ran the §V-B search the load it searched at and the
// predictor queries it cost.
type evalLedger struct {
	decideMS []float64
	searches [][]float64 // per pair: the loads searched at
	// queries counts every predictor query made inside Decide;
	// searchQueries those of the decisions that searched.
	queries, searchQueries     int64
	searchCalls, balancerCalls float64
}

func (c *evalLedger) wrap(s *core.Sturgeon, p evalPair, idx int, tr *tracer) control.Controller {
	for len(c.searches) <= idx {
		c.searches = append(c.searches, nil)
	}
	lastQueries, lastSearches := p.pred.Queries(), s.Searches
	return &tracedController{inner: s, tr: tr, name: "core.decide",
		after: func(ob control.Observation, _ hw.Config, ns int64) {
			c.decideMS = append(c.decideMS, float64(ns)/1e6)
			q := p.pred.Queries()
			c.queries += q - lastQueries
			if s.Searches != lastSearches {
				c.searches[idx] = append(c.searches[idx], ob.QPS)
				c.searchQueries += q - lastQueries
			}
			lastQueries, lastSearches = q, s.Searches
		}}
}

// report turns the first traced round into the core/models/sim ledger
// lines. It is called when that round ends, before later rounds add
// their spans.
func (c *evalLedger) report(rep *report, tr *tracer) {
	rep.set("core.decide.calls", tr.calls("core.decide"))
	rep.set("core.decide.busy_s", tr.busy("core.decide"))
	rep.set("sim.run.self_s", tr.self("sim.run"))
	rep.set("models.sweep.busy_s", tr.busy("models.sweep"))
	rep.set("models.fit.busy_s", tr.busy("models.fit"))
	sort.Float64s(c.decideMS)
	rep.set("core.decide.p99_ms", quantile(c.decideMS, 0.99))
	rep.set("core.search.calls", c.searchCalls)
	rep.set("core.balancer.calls", c.balancerCalls)
	rep.set("models.query.calls", float64(c.queries))
	if c.searchCalls > 0 {
		rep.set("models.queries_per_search", float64(c.searchQueries)/c.searchCalls)
	}
}

// replaySearch drives the loads the controller searched at through a
// fresh standalone searcher per pair, under a timing predictor: first
// with the memo cold (the cost of the §V-B search and of each query
// kind beneath it), then again with it warm (the cost of a memo hit).
func replaySearch(rep *report, pairs []evalPair, searched [][]float64) {
	const perPair = 40 // evenly spaced over the triangle
	var coldNS, warmNS, n int64
	tp := make([]*timedPredictor, len(pairs))
	for i, p := range pairs {
		seen := map[float64]bool{}
		var loads []float64
		for _, q := range searched[i] {
			if !seen[q] {
				seen[q] = true
				loads = append(loads, q)
			}
		}
		if len(loads) > perPair {
			stride := float64(len(loads)) / perPair
			for k := 0; k < perPair; k++ {
				loads[k] = loads[int(float64(k)*stride)]
			}
			loads = loads[:perPair]
		}
		tp[i] = &timedPredictor{inner: p.pred}
		s := core.Searcher{Spec: hw.DefaultSpec(), Pred: tp[i], Budget: p.budget}
		t0 := time.Now()
		for _, q := range loads {
			s.BestConfig(q)
		}
		coldNS += int64(time.Since(t0))
		t0 = time.Now()
		for _, q := range loads {
			s.BestConfig(q)
		}
		warmNS += int64(time.Since(t0))
		n += int64(len(loads))
	}
	if n == 0 {
		return
	}
	rep.set("core.search.mean_ms", float64(coldNS)/float64(n)/1e6)
	rep.set("core.search.memo_hit_ns", float64(warmNS)/float64(n))
	var qosNS, qosN, powNS, powN, thptNS, thptN int64
	for _, p := range tp {
		qosNS, qosN = qosNS+p.qosNS, qosN+p.qosN
		powNS, powN = powNS+p.powerNS, powN+p.powerN
		thptNS, thptN = thptNS+p.thptNS, thptN+p.thptN
	}
	rep.set("models.qosok.mean_us", float64(qosNS)/float64(max(qosN, 1))/1e3)
	rep.set("models.power.mean_us", float64(powNS)/float64(max(powN, 1))/1e3)
	rep.set("models.thpt_batch.us_per_alloc", float64(thptNS)/float64(max(thptN, 1))/1e3)
}
