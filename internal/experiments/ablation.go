package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"sturgeon/internal/core"
	"sturgeon/internal/hw"
	"sturgeon/internal/models"
	"sturgeon/internal/power"
	"sturgeon/internal/queueing"
	"sturgeon/internal/sim"
	"sturgeon/internal/trace"
	"sturgeon/internal/workload"
)

// AblationQueueEngines cross-validates the analytic G/G/c tail model the
// node simulator uses against the discrete-event reference across
// utilizations and burstiness levels (DESIGN.md §5.1).
func AblationQueueEngines(env *Env) *trace.Table {
	tbl := trace.NewTable("Ablation — analytic vs discrete-event queueing p95",
		"servers", "rho", "batch_mean", "analytic_p95_ms", "des_p95_ms", "rel_err")
	rng := rand.New(rand.NewSource(env.Cfg.Seed))
	cases := []struct {
		servers int
		rho     float64
		batch   float64
	}{
		{8, 0.3, 1}, {8, 0.6, 1}, {8, 0.85, 1},
		{8, 0.6, 4}, {8, 0.85, 4},
		{16, 0.7, 2}, {4, 0.5, 6},
	}
	const svcMean, svcCV = 0.002, 0.6
	for _, c := range cases {
		lambda := c.rho * float64(c.servers) / svcMean
		arrivalCV := 1.0
		if c.batch > 1 {
			arrivalCV = math.Sqrt(2*c.batch - 1)
		}
		a := queueing.Analytic{
			Lambda: lambda, Servers: c.servers,
			SvcMean: svcMean, SvcCV: svcCV, ArrivalCV: arrivalCV,
		}
		d := &queueing.DES{
			Servers: c.servers, SvcMean: svcMean, SvcCV: svcCV,
			BatchMean: c.batch, Rng: rng,
		}
		lat := d.Run(lambda, 5, 80)
		ap := a.SojournQuantile(0.95)
		dp := lat.Quantile(0.95)
		rel := 0.0
		if dp > 0 {
			rel = (ap - dp) / dp
		}
		tbl.Addf(c.servers, c.rho, c.batch, ap*1e3, dp*1e3, fmt.Sprintf("%+.1f%%", rel*100))
	}
	return tbl
}

// AblationEndToEndEngines runs the same Sturgeon evaluation with the
// node's latency physics driven by the analytic model and by the
// discrete-event simulator — the end-to-end counterpart of
// AblationQueueEngines (DESIGN.md §5.1).
func AblationEndToEndEngines(env *Env) *trace.Table {
	tbl := trace.NewTable("Ablation — analytic vs DES latency engine, end to end (memcached+raytrace)",
		"engine", "qos_rate", "norm_be_thpt", "breaker_trips")
	ls, be := workload.Memcached(), workload.Raytrace()
	budget := env.Budget(ls)
	dur := env.Cfg.DurationS
	if dur > 300 {
		dur = 300 // the DES engine is ~30x slower per interval
	}
	for _, useDES := range []bool{false, true} {
		node := sim.NewNode(ls, be, pairSeed(env.Cfg.Seed, ls.Name, be.Name))
		node.UseDES = useDES
		ctrl := core.New(env.Spec, env.Predictor(ls, be), budget, core.Options{})
		if err := node.Apply(hw.SoloLS(env.Spec)); err != nil {
			panic(err)
		}
		r := sim.Runner{Node: node, Ctrl: ctrl, Budget: budget,
			Trace: workload.Triangle(0.2, 0.8, float64(dur)), DurationS: dur}
		res := r.Run()
		label := "analytic"
		if useDES {
			label = "discrete-event"
		}
		tbl.Addf(label, res.QoSRate, res.NormBEThroughput, res.BreakerTrips)
	}
	return tbl
}

// MultiAppShowdown exercises the §V-B multi-application extension: two
// LS services (memcached + xapian) share a node with two BE applications
// (raytrace + swaptions) under the k-app controller, compared with a
// static quarters partition.
func MultiAppShowdown(env *Env) *trace.Table {
	tbl := trace.NewTable("Extension — multi-application co-location (memcached+xapian with rt+sp)",
		"policy", "joint_qos", "be_units_per_s", "overload_frac")
	apps := []workload.Profile{workload.Memcached(), workload.Xapian(),
		workload.Raytrace(), workload.Swaptions()}
	seed := env.collectOpts().Seed
	preds := make([]*models.Predictor, len(apps))
	for i, a := range apps {
		var err error
		if a.Class == workload.LS {
			preds[i], err = models.FitLS(a, env.LSData(a), seed)
		} else {
			preds[i], err = models.FitBE(a, env.BEData(a), seed)
		}
		if err != nil {
			panic(err)
		}
	}
	budget := env.Budget(apps[0]) * 1.1
	searcher := &core.AppSearcher{Spec: env.Spec, Apps: apps, Preds: preds,
		Budget: budget, IdleW: power.DefaultParams().IdleW}

	dur := env.Cfg.DurationS
	tr0 := workload.Triangle(0.2, 0.6, float64(dur))
	tr1 := workload.Diurnal(0.2, 0.5, float64(dur))

	run := func(ctrl *core.AppController, part []hw.Alloc, label string) {
		node := sim.NewAppNode(apps, pairSeed(env.Cfg.Seed, "multi", label))
		if err := node.Apply(part); err != nil {
			panic(err)
		}
		b := power.NewBudget(budget)
		p95 := make([]float64, len(apps))
		var okQ, totQ, beWork float64
		for i := 0; i < dur; i++ {
			t := float64(i + 1)
			qps := []float64{tr0(t) * apps[0].PeakQPS, tr1(t) * apps[1].PeakQPS}
			truePower, measured := node.Step(qps)
			b.Observe(truePower)
			for j, a := range node.Apps {
				if a.Profile.Class == workload.LS {
					okQ += a.QPS * a.QoSFrac
					totQ += a.QPS
					p95[j] = a.P95
				} else {
					beWork += a.BE.ThroughputUPS
				}
			}
			if ctrl != nil {
				part = ctrl.Decide(part, p95, qps, measured)
				if err := node.Apply(part); err != nil {
					panic(err)
				}
			}
		}
		tbl.Addf(label, okQ/totQ, beWork/float64(dur), b.OverloadFraction())
	}

	// Multi-Sturgeon starts with everything granted to the first service
	// (the k-app analogue of Alg. 1 line 1).
	init := make([]hw.Alloc, len(apps))
	for i := range init {
		init[i].Freq = env.Spec.FreqMin
	}
	init[0] = hw.Alloc{Cores: env.Spec.Cores, Freq: env.Spec.FreqMax, LLCWays: env.Spec.LLCWays}
	run(core.NewAppController(searcher), init, "multi-sturgeon")

	// Static quarters: each service gets a fixed quarter of the machine
	// at a middling frequency, BE apps the rest at the floor.
	run(nil, []hw.Alloc{
		{Cores: 6, Freq: 2.0, LLCWays: 6},
		{Cores: 6, Freq: 2.0, LLCWays: 6},
		{Cores: 4, Freq: 1.2, LLCWays: 4},
		{Cores: 4, Freq: 1.2, LLCWays: 4},
	}, "static-quarters")
	return tbl
}

// AblationHarvestPolicy compares the preference-aware balancer with a
// fixed-order (cores-first) harvester on the cache-sensitive
// memcached+raytrace pair (DESIGN.md §5.4).
func AblationHarvestPolicy(env *Env) *trace.Table {
	tbl := trace.NewTable("Ablation — preference-aware vs fixed-order harvesting",
		"policy", "qos_rate", "norm_be_thpt")
	ls, be := workload.Memcached(), workload.Raytrace()
	budget := env.Budget(ls)
	run := func(fixed bool) sim.Result {
		node := sim.NewNode(ls, be, pairSeed(env.Cfg.Seed, ls.Name, be.Name))
		ctrl := core.New(env.Spec, env.Predictor(ls, be), budget,
			core.Options{FixedHarvestOrder: fixed})
		if err := node.Apply(hw.SoloLS(env.Spec)); err != nil {
			panic(err)
		}
		r := sim.Runner{Node: node, Ctrl: ctrl, Budget: budget,
			Trace:     workload.Triangle(0.2, 0.8, float64(env.Cfg.DurationS)),
			DurationS: env.Cfg.DurationS}
		return r.Run()
	}
	pref := run(false)
	fixed := run(true)
	tbl.Addf("preference-aware", pref.QoSRate, pref.NormBEThroughput)
	tbl.Addf("cores-first", fixed.QoSRate, fixed.NormBEThroughput)
	return tbl
}

// AblationPeakVsMeanPower trains one predictor on the paper's
// conservative peak-power labels and one on mean-power labels, then
// compares overload exposure under Sturgeon (DESIGN.md §5.2).
func AblationPeakVsMeanPower(env *Env) *trace.Table {
	tbl := trace.NewTable("Ablation — peak vs mean power-model labels (memcached+swaptions)",
		"labels", "qos_rate", "norm_be_thpt", "overload_frac", "breaker_trips")
	ls, be := workload.Memcached(), workload.Swaptions()
	budget := env.Budget(ls)
	for _, mean := range []bool{false, true} {
		opts := env.collectOpts()
		opts.MeanPowerLabels = mean
		pred, err := models.Train(ls, be, models.TrainOptions{Collect: opts})
		if err != nil {
			panic(err)
		}
		node := sim.NewNode(ls, be, pairSeed(env.Cfg.Seed, ls.Name, be.Name))
		ctrl := core.New(env.Spec, pred, budget, core.Options{})
		if err := node.Apply(hw.SoloLS(env.Spec)); err != nil {
			panic(err)
		}
		r := sim.Runner{Node: node, Ctrl: ctrl, Budget: budget,
			Trace:     workload.Triangle(0.2, 0.8, float64(env.Cfg.DurationS)),
			DurationS: env.Cfg.DurationS}
		res := r.Run()
		label := "peak (paper)"
		if mean {
			label = "mean"
		}
		tbl.Addf(label, res.QoSRate, res.NormBEThroughput, res.OverloadFrac, res.BreakerTrips)
	}
	return tbl
}

// AblationSlackBounds sweeps the Algorithm 1 α/β thresholds on one pair
// (DESIGN.md §5.5).
func AblationSlackBounds(env *Env) *trace.Table {
	tbl := trace.NewTable("Ablation — slack bound sensitivity (memcached+swaptions)",
		"alpha", "beta", "qos_rate", "norm_be_thpt", "overload_frac")
	ls, be := workload.Memcached(), workload.Swaptions()
	budget := env.Budget(ls)
	for _, ab := range [][2]float64{{0.05, 0.15}, {0.10, 0.20}, {0.20, 0.40}} {
		node := sim.NewNode(ls, be, pairSeed(env.Cfg.Seed, ls.Name, be.Name))
		ctrl := core.New(env.Spec, env.Predictor(ls, be), budget,
			core.Options{Alpha: ab[0], Beta: ab[1]})
		if err := node.Apply(hw.SoloLS(env.Spec)); err != nil {
			panic(err)
		}
		r := sim.Runner{Node: node, Ctrl: ctrl, Budget: budget,
			Trace:     workload.Triangle(0.2, 0.8, float64(env.Cfg.DurationS)),
			DurationS: env.Cfg.DurationS}
		res := r.Run()
		tbl.Addf(ab[0], ab[1], res.QoSRate, res.NormBEThroughput, res.OverloadFrac)
	}
	return tbl
}

// AblationSearchHeadroom compares the default one-step search headroom
// with headroom disabled (DESIGN.md §5.3): without it, the binary search
// parks the LS service exactly on the learned feasibility boundary.
func AblationSearchHeadroom(env *Env) *trace.Table {
	tbl := trace.NewTable("Ablation — search grid headroom (memcached+raytrace)",
		"headroom", "qos_rate", "norm_be_thpt")
	ls, be := workload.Memcached(), workload.Raytrace()
	budget := env.Budget(ls)
	for _, h := range []int{0, -1} { // 0 = default (+1 step), -1 = disabled
		node := sim.NewNode(ls, be, pairSeed(env.Cfg.Seed, ls.Name, be.Name))
		ctrl := core.New(env.Spec, env.Predictor(ls, be), budget,
			core.Options{SearchHeadroom: h})
		if err := node.Apply(hw.SoloLS(env.Spec)); err != nil {
			panic(err)
		}
		r := sim.Runner{Node: node, Ctrl: ctrl, Budget: budget,
			Trace:     workload.Triangle(0.2, 0.8, float64(env.Cfg.DurationS)),
			DurationS: env.Cfg.DurationS}
		res := r.Run()
		label := "+1 step (default)"
		if h < 0 {
			label = "disabled"
		}
		tbl.Addf(label, res.QoSRate, res.NormBEThroughput)
	}
	return tbl
}
