package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"sturgeon/internal/cluster"
	"sturgeon/internal/control"
	"sturgeon/internal/des"
	"sturgeon/internal/faults"
	"sturgeon/internal/hw"
	"sturgeon/internal/invariant"
	"sturgeon/internal/queueing"
	"sturgeon/internal/telemetry"
	"sturgeon/internal/workload"
)

// fleet is one built fleet scenario, ready to Run once.
type fleet struct {
	c         *cluster.Cluster
	trace     workload.Trace
	durationS int
	inv       *invariant.Checker // nil when the scenario attaches none
}

// fleetWorkload names a scenario and how to build a fresh copy of it:
// Cluster.Run consumes its nodes and controllers, so every unit of work
// starts from a new build, whose time is the workload's set-up.
type fleetWorkload struct {
	name  string
	build func(seed int64, quick bool) (*fleet, error)
}

// fleet-step is the per-second engine under everything that can go
// wrong at once: 64 governor nodes on the rotating-skew coordinated
// fleet with fenced leases, the coordinator chaos plan, the default
// node fault mix and the budget-invariant checker attached. The work
// is sim.Node.Step (the skew gives every node its own arrival rate
// every second, which defeats the shared latency-solve cache),
// share planning, the serial merge with health detection, and the
// coordinator exchange every fifth second. core and models do nothing:
// governors need no predictor.
func buildFleetStep(seed int64, quick bool) (*fleet, error) {
	o := cluster.DefaultCoordFleet(seed)
	o.Nodes, o.DurationS = 64, 300
	if quick {
		o.Nodes, o.DurationS = 8, 60
	}
	o.PeriodS = float64(o.DurationS)
	o.Coordinated, o.Leased, o.Chaos = true, true, true
	c, err := cluster.BuildCoordFleet(o)
	if err != nil {
		return nil, err
	}
	c.Parallelism = 1
	c.InjectFaults(faults.DefaultSpec(), o.DurationS)
	c.Invariants = invariant.New(o.EvenCapW*float64(o.Nodes), 16)
	return &fleet{c: c, trace: o.Trace(), durationS: o.DurationS, inv: c.Invariants}, nil
}

// fleet-event is the event engine at datacenter scale: 10 000 quiet
// governor nodes over six hourly load treads, nearly all of which the
// engine replicates without touching the fleet. Six one-minute node
// crashes, one per tread at a seeded second on a seeded node, keep a
// few hundred seconds active, so the cost is wake-up scheduling, the
// classify/memo pass and the serial merge over 10 000 nodes — not node
// stepping. The crashes are scripted (faults.Manual) near the middle of
// each tread so that every seed does the same amount of work and the
// replicated stretches between wake-ups have the same lengths; the
// seed picks the node and moves the second.
func buildFleetEvent(seed int64, quick bool) (*fleet, error) {
	o := cluster.DefaultFleet10k()
	o.Seed = seed
	treads := 6
	if quick {
		o.Nodes, o.StepDurS, treads = 200, 300, 2
	}
	o.DurationS = treads * o.StepDurS
	c, err := cluster.BuildFleet10k(o)
	if err != nil {
		return nil, err
	}
	c.Parallelism = 1
	rng := rand.New(rand.NewSource(seed))
	plans := make([]*faults.Plan, o.Nodes)
	for k := 0; k < treads; k++ {
		// Clear of the tread's edges: the fleet is settled when the node
		// goes down and again before the load next moves.
		start := k*o.StepDurS + o.StepDurS/2 + rng.Intn(o.StepDurS/30)
		node := k*(o.Nodes/treads) + rng.Intn(o.Nodes/treads)
		plans[node] = faults.Manual(o.DurationS,
			faults.Episode{Kind: faults.NodeCrash, Start: start, End: start + 60})
	}
	c.SetFaultPlans(plans...)
	return &fleet{c: c, trace: o.Trace(), durationS: o.DurationS}, nil
}

func runFleetStep(cfg runConfig, rep *report) error {
	return runFleet(cfg, rep, fleetWorkload{name: "fleet-step", build: buildFleetStep})
}

func runFleetEvent(cfg runConfig, rep *report) error {
	return runFleet(cfg, rep, fleetWorkload{name: "fleet-event", build: buildFleetEvent})
}

// fleetUnit is what one build-and-run of the scenario leaves behind.
// The fleet itself is dropped with the run: the next unit must not pay
// for this one's heap.
type fleetUnit struct {
	nodes, durationS int
	event            bool // ran on the event engine
	buildS, wall     float64
	cpu              float64
	res              cluster.Result
	hash             string
	activeS          int      // seconds the event engine evaluated
	violations       []string // of the budget invariant
	mallocs, allocMB float64
}

// runFleetUnit builds the scenario, lets decorate wrap what it wants,
// runs it under a ticked trace, and lets after look at the finished
// fleet before it is dropped.
func runFleetUnit(w fleetWorkload, cfg runConfig, tr *tracer, tk *ticker, decorate, after func(*fleet)) (fleetUnit, error) {
	var u fleetUnit
	var f *fleet
	var err error
	t0 := time.Now()
	timed(tr, "cluster.build", func() { f, err = w.build(cfg.seed, cfg.quick) })
	if err != nil {
		return u, err
	}
	u.buildS = time.Since(t0).Seconds()
	u.nodes, u.durationS, u.event = len(f.c.Nodes), f.durationS, f.c.Engine == cluster.EngineEvent
	if decorate != nil {
		decorate(f)
	}
	runtime.GC() // each unit starts from the same heap state
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	cpu0, t0 := cpuSelf(), time.Now()
	timed(tr, "cluster.run", func() { u.res = f.c.Run(tk.wrap(f.trace), f.durationS) })
	u.wall, u.cpu = time.Since(t0).Seconds(), (cpuSelf() - cpu0).Seconds()
	if tr != nil {
		runtime.ReadMemStats(&m1)
		u.mallocs = float64(m1.Mallocs - m0.Mallocs)
		u.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	}
	u.hash = fmt.Sprintf("%x", sha256.Sum256([]byte(u.res.Summary())))
	u.activeS = f.c.EventActiveSeconds()
	if inv := f.inv; inv != nil {
		u.violations = inv.Violations()
		for i := 0; i < inv.DroppedViolations(); i++ {
			u.violations = append(u.violations, "(not retained)")
		}
	}
	if after != nil {
		after(f)
	}
	u.res.Intervals = nil // digested above; a window holds a dozen units
	return u, nil
}

// stepRec is one node-second as the node's governor saw it: enough to
// re-step a twin node and to rebuild the queue the node solved.
type stepRec struct {
	node   int
	t, qps float64
	p95    float64
	cfg    hw.Config
}

func runFleet(cfg runConfig, rep *report, w fleetWorkload) error {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	// Warm-up slice: a quick-scale build and run.
	warm := cfg
	warm.quick = true
	if _, err := runFleetUnit(w, warm, nil, newTicker(1024), nil, nil); err != nil {
		return err
	}

	var untraced, traced []fleetUnit
	var p95s []float64
	var recs []stepRec
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for len(untraced) == 0 || time.Since(start) < window {
		if err := cfg.interrupted(); err != nil {
			return err
		}
		tk := newTicker(1 << 12)
		u, err := runFleetUnit(w, cfg, nil, tk, nil, nil)
		if err != nil {
			return err
		}
		gaps := tk.gapsUS()
		sort.Float64s(gaps)
		p95s = append(p95s, quantile(gaps, 0.95))
		untraced = append(untraced, u)
		checkSimStats(rep, w.name, u.res.QoSRate, u.res.MeanBEThroughputUPS)
		rep.check(u.hash == untraced[0].hash, "%s: repeated run diverged from the first", w.name)
		rep.check(len(u.violations) == 0, "%s: %d budget-invariant violations: %v", w.name, len(u.violations), u.violations)
		if !cfg.traced {
			continue
		}

		// Traced twin of the same unit, alternating with the untraced one
		// so both see the same machine conditions.
		tr.trace = fmt.Sprintf("%s/unit-%d", w.name, len(traced))
		capture := len(traced) == 0
		u, err = runFleetUnit(w, cfg, tr, newTicker(1<<12), func(f *fleet) {
			f.c.Policy = wrapPolicy(f.c.Policy, tr)
			for i, ctrl := range f.c.Ctrls {
				tc := &tracedController{inner: ctrl, tr: tr, name: "control.decide", perSecond: true}
				if capture {
					tc.after = func(ob control.Observation, _ hw.Config, _ int64) {
						recs = append(recs, stepRec{node: i, t: ob.Time, qps: ob.QPS, p95: ob.P95, cfg: ob.Config})
					}
				}
				f.c.Ctrls[i] = tc
			}
			if f.c.Coord != nil {
				f.c.Coord.Transport = &tracedTransport{inner: f.c.Coord.Transport, tr: tr}
			}
		}, func(f *fleet) {
			if !capture {
				return
			}
			// Live heap with the cluster and its result still referenced.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			rep.set("cluster.live_heap_mib", float64(ms.HeapAlloc)/(1<<20))
			runtime.KeepAlive(f)
		})
		if err != nil {
			return err
		}
		traced = append(traced, u)
		rep.check(u.hash == untraced[0].hash, "%s: traced run diverged from the untraced one", w.name)
		rep.check(u.activeS == untraced[0].activeS, "%s: traced run evaluated %d seconds, untraced %d",
			w.name, u.activeS, untraced[0].activeS)
	}

	var builds, walls []float64
	var cpu float64
	for _, u := range untraced {
		builds, walls = append(builds, u.buildS), append(walls, u.wall)
		cpu += u.cpu
	}
	simS := float64(untraced[0].durationS)
	rep.set("setup_s", median(builds))
	rep.set("ops_per_s", simS/median(walls))
	rep.set("op_p95_us", median(p95s))
	rep.set("cpu_us_per_op", cpu/(simS*float64(len(untraced)))*1e6)
	if err := rep.setPeakRSS("self"); err != nil || !cfg.traced {
		return err
	}

	first := untraced[0]
	rep.set("sim.qos_rate", first.res.QoSRate)
	rep.set("sim.be_ups", first.res.MeanBEThroughputUPS)
	rep.set("sim.summary_hash", hash52(first.hash))
	var tracedWalls []float64
	for _, u := range traced {
		tracedWalls = append(tracedWalls, u.wall)
	}
	rep.set("trace.overhead_frac", median(tracedWalls)/median(walls)-1)

	// Span totals are over every traced unit; the ledger is per unit of
	// work, so that counts repeat exactly for a seed.
	units := float64(len(traced))
	decides := tr.calls("control.decide") / units
	rep.set("cluster.build.busy_s", tr.busy("cluster.build")/units)
	rep.set("cluster.run.busy_s", tr.busy("cluster.run")/units)
	rep.set("cluster.run.self_s", tr.self("cluster.run")/units)
	rep.set("cluster.shares.calls", tr.calls("cluster.shares")/units)
	rep.set("cluster.shares.busy_s", tr.busy("cluster.shares")/units)
	rep.set("control.decide.calls", decides)
	rep.set("control.decide.busy_s", tr.busy("control.decide")/units)
	rep.set("coordinator.exchange.calls", tr.calls("coordinator.exchange")/units)
	rep.set("coordinator.exchange.busy_s", tr.busy("coordinator.exchange")/units)
	rep.set("coordinator.exchange.failed", tr.calls("coordinator.exchange.failed")/units)
	rep.set("cluster.evictions", float64(first.res.Health.Evictions))
	rep.set("cluster.readmissions", float64(first.res.Health.Readmissions))
	rep.set("coordinator.dropped_reports", float64(first.res.Coord.DroppedReports))
	rep.set("invariant.violations", float64(len(first.violations)))
	rep.set("cluster.alloc_mib", traced[0].allocMB)
	rep.set("cluster.allocs_per_step", traced[0].mallocs/math.Max(decides, 1))

	if first.event {
		active := float64(first.activeS)
		rep.set("des.active_s", active)
		rep.set("cluster.skip_frac", 1-active/simS)
		rep.set("cluster.wall_per_active_s_ms", median(walls)/math.Max(active, 1)*1e3)
		rep.set("cluster.ns_per_stepped_node", median(walls)/math.Max(decides, 1)*1e9)
		replayQueue(rep, first.nodes, first.durationS, cfg.seed)
	} else {
		if err := poolSpeedup(rep, w, cfg, median(walls)); err != nil {
			return err
		}
	}
	if err := replaySteps(rep, w, cfg, recs, tr.self("cluster.run")/units); err != nil {
		return err
	}
	return tr.finish(cfg, rep)
}

// poolSpeedup runs the unit once more with the node fan-out on the
// worker pool. Information only: on two shared cores it says little.
func poolSpeedup(rep *report, w fleetWorkload, cfg runConfig, serialWall float64) error {
	u, err := runFleetUnit(w, cfg, nil, newTicker(1<<12), func(f *fleet) {
		f.c.Parallelism = min(runtime.NumCPU(), 4)
	}, nil)
	if err != nil {
		return err
	}
	rep.set("pool.speedup", serialWall/u.wall)
	return nil
}

// replaySteps drives the captured node-seconds through the layers
// beneath the cluster, one at a time and under a timer: twin nodes
// re-stepped with the fleet's shared latency-solve cache and without
// one, the queues those steps solved through a fresh cache, and the
// measured tail latencies through a telemetry window. runSelfS is the
// cluster's own time per unit; what the node-step estimate does not
// explain of it is reported rather than hidden.
func replaySteps(rep *report, w fleetWorkload, cfg runConfig, recs []stepRec, runSelfS float64) error {
	if len(recs) == 0 {
		return nil
	}
	restep := func(noCache bool, each func(stepRec, float64)) (float64, error) {
		f, err := w.build(cfg.seed, cfg.quick)
		if err != nil {
			return 0, err
		}
		if noCache {
			for _, n := range f.c.Nodes {
				n.Latency = nil
			}
		}
		t0 := time.Now()
		for _, r := range recs {
			n := f.c.Nodes[r.node]
			if n.Config() != r.cfg {
				if err := n.Apply(r.cfg); err != nil {
					return 0, err
				}
			}
			st := n.Step(r.t, r.qps)
			if each != nil {
				each(r, st.LSRho)
			}
		}
		return time.Since(t0).Seconds() / float64(len(recs)) * 1e6, nil
	}

	ls := workload.Memcached() // both fleet scenarios serve memcached
	var queues []queueing.Analytic
	stepUS, err := restep(false, func(r stepRec, rho float64) {
		if r.qps > 0 && r.cfg.LS.Cores > 0 {
			queues = append(queues, queueing.Analytic{Lambda: r.qps, Servers: r.cfg.LS.Cores,
				SvcMean: rho * float64(r.cfg.LS.Cores) / r.qps,
				SvcCV:   ls.SvcCV, ArrivalCV: ls.ArrivalCV, IntervalS: 1})
		}
	})
	if err != nil {
		return err
	}
	noCacheUS, err := restep(true, nil)
	if err != nil {
		return err
	}
	rep.set("sim.step.mean_us", stepUS)
	rep.set("sim.step_nocache.mean_us", noCacheUS)
	rep.set("cluster.unexplained_s", runSelfS-stepUS*float64(len(recs))/1e6)

	if len(queues) > 0 {
		lat := queueing.NewCache()
		var ev queueing.Evaluator
		distinct := map[queueing.Analytic]struct{}{}
		t0 := time.Now()
		for _, q := range queues {
			lat.Solve(q, 0.95, ls.QoSTargetS, &ev)
		}
		rep.set("queueing.solve.mean_us", time.Since(t0).Seconds()/float64(len(queues))*1e6)
		for _, q := range queues {
			distinct[q] = struct{}{}
		}
		rep.set("queueing.solve.hit_frac", 1-float64(len(distinct))/float64(len(queues)))
	}

	win := telemetry.NewWindow(64)
	var n int
	t0 := time.Now()
	for _, r := range recs {
		if finite(r.p95) {
			win.Observe(r.p95)
			win.Quantile(0.95)
			n++
		}
	}
	if n > 0 {
		rep.set("telemetry.window.op_ns", time.Since(t0).Seconds()/float64(n)*1e9)
	}
	return nil
}

// replayQueue times the wake-up queue on a seeded schedule of fleet
// size: every node holds one pending wake-up, and each one popped is
// rescheduled further ahead — the event engine's access pattern.
func replayQueue(rep *report, nodes, durationS int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	q := des.NewQueue()
	ops := 0
	t0 := time.Now()
	for i := 0; i < nodes; i++ {
		q.Schedule(des.Event{Step: rng.Intn(durationS), Node: i, Kind: des.KindSettle})
		ops++
	}
	var buf []des.Event
	for step := 0; step < durationS; step += max(durationS/64, 1) {
		buf = q.PopThrough(step, buf[:0])
		ops += len(buf)
		for _, e := range buf {
			if next := step + 1 + rng.Intn(durationS); next < durationS {
				q.Schedule(des.Event{Step: next, Node: e.Node, Kind: des.KindFault})
				ops++
			}
		}
	}
	rep.set("des.queue.op_ns", time.Since(t0).Seconds()/float64(max(ops, 1))*1e9)
}
