package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"sturgeon/internal/cache"
	"sturgeon/internal/faults"
	"sturgeon/internal/hw"
	"sturgeon/internal/power"
	"sturgeon/internal/queueing"
	"sturgeon/internal/workload"
)

// IntervalStats reports one simulated 1 s interval. Fields prefixed True
// are ground truth the controllers never see; the measured fields carry
// realistic telemetry noise.
type IntervalStats struct {
	Time float64
	QPS  float64

	// TrueP95 is the physics tail latency; P95 the noisy measurement.
	TrueP95 float64
	P95     float64
	// QoSFrac is the true fraction of the interval's queries finishing
	// within the QoS target (the paper's guarantee-rate contribution).
	QoSFrac float64

	// BEThroughputUPS is best-effort progress in units/s.
	BEThroughputUPS float64

	// TruePower is the physics draw; Power the RAPL-style reading.
	TruePower power.Watts
	Power     power.Watts

	LSUtil, BEUtil float64
	LSRho          float64
	Contention     float64
	Interference   bool
	Config         hw.Config

	// Faults is the fault-injection mask active this interval (zero when
	// the run carries no fault plan). Set by the runner, not by Step.
	Faults faults.Flags
}

// Node is the simulated power-constrained server. It exposes the same
// actuation surface as the paper's Table III tools — core partitioning,
// per-allocation DVFS, LLC way partitioning and a sampled power meter —
// over synthetic physics.
type Node struct {
	Spec        hw.Spec
	PowerParams power.Params
	Bus         cache.MemBus
	LSProfile   workload.Profile
	BEProfile   workload.Profile
	Meter       *power.Meter
	Interf      *Interference

	// P95NoiseSD is the baseline lognormal sd of latency measurement
	// noise; noise grows further as the service nears saturation.
	P95NoiseSD float64
	// QoSPercentile is the tail percentile tracked (default 0.95, the
	// paper's primary metric; Fig. 9's narrative also quotes 99 %-iles).
	QoSPercentile float64
	// UseDES switches the latency engine from the analytic G/G/c
	// approximation to per-interval discrete-event simulation with
	// sampled queries — slower and noisier, used by the queue-engine
	// ablation as the higher-fidelity reference.
	UseDES bool

	// Latency memoizes analytic sojourn solves. NewNode gives every node
	// its own cache; a cluster overwrites it with one shared instance so
	// nodes seeing the same arrival rate (round-robin dispatch, repeated
	// trace levels) solve each queue once fleet-wide. Solves are pure, so
	// sharing never changes results — nil disables memoization entirely.
	Latency *queueing.Cache

	rng *rand.Rand
	cfg hw.Config
	// lat is reusable scratch for the analytic latency engine, keeping
	// the steady-state step allocation-free.
	lat queueing.Evaluator
	// pair is Step's two-app list [LS, BE], kept so a step neither
	// allocates nor re-zeroes it. pair[0].Backlog carries queued-but-
	// unserved queries across intervals: a service pushed past saturation
	// does not recover instantly when capacity returns — the queue drains
	// over the following intervals with elevated latency, exactly the
	// gradual degradation feedback controllers rely on for a usable
	// gradient.
	pair [2]App
}

// NewNode builds a node with the paper's default platform, the default
// power physics and interference model, seeded deterministically.
func NewNode(ls, be workload.Profile, seed int64) *Node {
	rng := rand.New(rand.NewSource(seed))
	n := &Node{
		Spec:        hw.DefaultSpec(),
		PowerParams: power.DefaultParams(),
		Bus:         cache.DefaultBus(),
		LSProfile:   ls,
		BEProfile:   be,
		Meter:       power.NewMeter(0.8, rng.NormFloat64),
		Interf:      DefaultInterference(rng),
		P95NoiseSD:  0.04,
		Latency:     queueing.NewCache(),
		rng:         rng,
	}
	n.cfg = hw.SoloLS(n.Spec)
	return n
}

// QuietNode builds a node without interference or measurement noise —
// the dedicated-cluster profiling environment of §V-A.
func QuietNode(ls, be workload.Profile, seed int64) *Node {
	n := NewNode(ls, be, seed)
	n.Meter = power.NewMeter(0, nil)
	n.Interf = None()
	n.P95NoiseSD = 0
	return n
}

// ProfilingNode builds a node with realistic measurement noise but no
// interference episodes: the environment model-training sweeps run in.
// Trained models therefore carry irreducible measurement error (their
// Fig. 6/7 R² sits below 1) yet never learn the interference the
// balancer exists to absorb.
func ProfilingNode(ls, be workload.Profile, seed int64) *Node {
	n := NewNode(ls, be, seed)
	n.Interf = None()
	return n
}

// Deterministic reports whether Step is a pure function of (t, qps,
// config, backlog) — no interference episodes possible, no meter or
// latency measurement noise, and the analytic latency engine (the DES
// engine samples queries from the node rng). Only then may the
// event-driven cluster engine replay a previous interval's stats
// instead of stepping: a skipped Step must consume no randomness and
// mutate no state the next real Step could observe.
func (n *Node) Deterministic() bool {
	return n.Meter.Noiseless() && n.Interf.Quiet() && n.P95NoiseSD <= 0 && !n.UseDES
}

// Apply sets the resource configuration (validating against the spec),
// like writing cpuset cgroups, resctrl masks and ACPI frequency files.
func (n *Node) Apply(cfg hw.Config) error {
	cfg.LS.Freq = n.Spec.ClampFreq(cfg.LS.Freq)
	cfg.BE.Freq = n.Spec.ClampFreq(cfg.BE.Freq)
	if err := cfg.Validate(n.Spec); err != nil {
		return fmt.Errorf("sim: apply: %w", err)
	}
	n.cfg = cfg
	return nil
}

// Config returns the configuration currently in force.
func (n *Node) Config() hw.Config { return n.cfg }

// App is one application's share of a node interval. Node.Step steps
// its LS/BE pair as a two-app list; AppNode steps k of them. The caller
// sets Profile, Alloc and QPS (read for LS services only); Backlog is the
// LS queue carried across intervals, which the step advances; the rest
// is what the interval's physics made of the application.
type App struct {
	Profile *workload.Profile
	Alloc   hw.Alloc
	QPS     float64
	Backlog float64

	// LS and BE are the settled states at the interval's bus contention;
	// LS's service time, Rho and Util carry the interference inflation.
	LS workload.LSState
	BE workload.BEState
	// TrueP95 is the physics tail latency, P95 the noisy measurement and
	// QoSFrac the true fraction of queries within target (LS only).
	TrueP95, P95, QoSFrac float64

	ls bool // latency-sensitive: queue, tail latency, p95 noise
	// powerUtil is the busy fraction behind dynamic power: an LS
	// service's before interference stalls, 1 for a running BE app.
	powerUtil float64
}

// interval runs one interval's physics over an application list: the bus
// contention fixed point (demand summed in list order, then the
// interference traffic), each LS service's queue and tail latency, and
// the node's power. The node rng is drawn in one fixed order —
// interference, DES per LS service, meter, p95 noise per LS service — so
// a two-app list [LS, BE] is exactly the pair's Step.
func (n *Node) interval(apps []App) (truePower, measPower power.Watts, contention float64, interfering bool) {
	svcFactor, extraBW := 1.0, 0.0
	if n.Interf != nil {
		svcFactor, extraBW, interfering = n.Interf.Step()
	}
	contention, demand := n.Bus.Settle(func(c float64) float64 {
		d := 0.0
		for i := range apps {
			a := &apps[i]
			if a.ls {
				a.LS = a.Profile.LSRate(a.Alloc, a.QPS, c)
				d += a.LS.BandwidthGBs
			} else {
				a.BE = a.Profile.BERate(a.Alloc, c)
				d += a.BE.BandwidthGBs
			}
		}
		return d + extraBW
	})

	pct := n.QoSPercentile
	if pct <= 0 || pct >= 1 {
		pct = 0.95
	}
	for i := range apps {
		a := &apps[i]
		switch {
		case a.ls:
			n.serve(a, svcFactor, pct)
		case a.Alloc.Cores > 0:
			a.powerUtil = 1 // BE cores spin at full residency
		default:
			a.powerUtil = 0
		}
	}

	var buf [2]power.CoreLoad
	loads, activeWays := buf[:0], 0
	for i := range apps {
		a := &apps[i]
		loads = append(loads, power.CoreLoad{Cores: a.Alloc.Cores, Freq: a.Alloc.Freq, Util: a.powerUtil, Activity: a.Profile.Activity})
		activeWays += a.Alloc.LLCWays
	}
	truePower = n.PowerParams.Total(loads, activeWays, n.Spec.LLCWays, n.Bus.Achieved(demand))
	measPower = truePower
	if n.Meter != nil {
		measPower = n.Meter.Read(truePower, 1)
	}

	// Latency measurement noise grows near saturation, where a 1 s
	// window of a heavy tail is an unstable estimator.
	for i := range apps {
		a := &apps[i]
		if !a.ls {
			continue
		}
		a.P95 = a.TrueP95
		if n.P95NoiseSD > 0 && a.TrueP95 > 0 && !math.IsInf(a.TrueP95, 1) {
			sd := n.P95NoiseSD
			if a.LS.Rho > 0.75 {
				sd += 0.10 * math.Min((a.LS.Rho-0.75)/0.25, 2)
			}
			a.P95 = a.TrueP95 * math.Exp(n.rng.NormFloat64()*sd)
		}
	}
	return truePower, measPower, contention, interfering
}

// serve settles one LS service's interval: interference stalls, the
// carried queue and the tail latency from the node's latency engine.
func (n *Node) serve(a *App, svcFactor, pct float64) {
	// Interference inflates LS per-query time through *stalls* on
	// unmanaged shared resources. Stalled cycles occupy the core (so the
	// queueing capacity shrinks by the full factor) but toggle little
	// switching capacitance, so dynamic power tracks the pre-inflation
	// busy fraction.
	a.powerUtil = math.Min(a.LS.Rho, 1)
	a.LS.SvcMean *= svcFactor
	a.LS.Rho *= svcFactor
	a.LS.Util = math.Min(a.LS.Rho, 1)

	// Queue backlog dynamics: the average extra wait imposed by queries
	// left over from previous intervals, then this interval's net flow.
	backlogWait := a.stepBacklog()

	// Latency: the chosen queueing engine on the effective service time,
	// shifted by the backlog drain wait.
	target := a.Profile.QoSTargetS
	if n.UseDES {
		a.TrueP95, a.QoSFrac = n.desLatency(a, target, backlogWait, pct)
	} else {
		q := queueing.Analytic{
			Lambda:    a.QPS,
			Servers:   a.Alloc.Cores,
			SvcMean:   a.LS.SvcMean,
			SvcCV:     a.Profile.SvcCV,
			ArrivalCV: a.Profile.ArrivalCV,
			IntervalS: 1,
		}
		budget := target - backlogWait
		p95, frac := n.Latency.Solve(q, pct, budget, &n.lat)
		a.TrueP95, a.QoSFrac = p95+backlogWait, 0
		if budget > 0 {
			a.QoSFrac = frac
		}
	}
	if a.QPS <= 0 && a.Backlog <= 0 {
		a.TrueP95, a.QoSFrac = 0, 1
	}
}

// Step advances one interval of dt = 1 s at the given offered load and
// returns its statistics. The configuration applied beforehand is in
// force for the whole interval.
func (n *Node) Step(t, qps float64) IntervalStats {
	ls, be := &n.pair[0], &n.pair[1]
	ls.Profile, ls.Alloc, ls.QPS, ls.ls = &n.LSProfile, n.cfg.LS, qps, true
	be.Profile, be.Alloc = &n.BEProfile, n.cfg.BE
	truePower, measPower, contention, interfering := n.interval(n.pair[:])
	return IntervalStats{
		Time:            t,
		QPS:             qps,
		TrueP95:         ls.TrueP95,
		P95:             ls.P95,
		QoSFrac:         ls.QoSFrac,
		BEThroughputUPS: be.BE.ThroughputUPS,
		TruePower:       truePower,
		Power:           measPower,
		LSUtil:          ls.LS.Util,
		BEUtil:          be.BE.Util,
		LSRho:           ls.LS.Rho,
		Contention:      contention,
		Interference:    interfering,
		Config:          n.cfg,
	}
}

// AppNode hosts k co-located applications — any mix of LS services and
// BE applications, the paper's §V-B extension — on one Node's platform,
// noise sources and latency engine. Its Step runs Node.Step's interval
// physics over the application list, so k = 2 with [LS, BE] reproduces
// Node.Step bit for bit; the Node's own LS/BE pair plays no part.
type AppNode struct {
	Node *Node
	Apps []App
}

// NewAppNode builds a k-app node with NewNode's default physics, every
// application parked (no cores) until Apply.
func NewAppNode(profiles []workload.Profile, seed int64) *AppNode {
	m := &AppNode{Node: NewNode(workload.Profile{}, workload.Profile{}, seed), Apps: make([]App, len(profiles))}
	for i := range profiles {
		p := profiles[i]
		m.Apps[i] = App{Profile: &p, ls: p.Class == workload.LS}
	}
	return m
}

// Apply installs a partition, one allocation per application, clamping
// frequencies and validating joint capacity like Node.Apply.
func (m *AppNode) Apply(part []hw.Alloc) error {
	if len(part) != len(m.Apps) {
		return fmt.Errorf("sim: apply: %d allocations for %d apps", len(part), len(m.Apps))
	}
	q := slices.Clone(part)
	for i := range q {
		q[i].Freq = m.Node.Spec.ClampFreq(q[i].Freq)
	}
	if err := hw.ValidatePartition(m.Node.Spec, q...); err != nil {
		return fmt.Errorf("sim: apply: %w", err)
	}
	for i := range q {
		m.Apps[i].Alloc = q[i]
	}
	return nil
}

// Step advances one 1 s interval. qps holds each application's offered
// load, index-aligned with Apps (BE entries are ignored; missing ones
// are zero). It returns the true and the metered node power.
func (m *AppNode) Step(qps []float64) (truePower, measured power.Watts) {
	for i := range m.Apps {
		m.Apps[i].QPS = 0
		if i < len(qps) {
			m.Apps[i].QPS = qps[i]
		}
	}
	truePower, measured, _, _ = m.Node.interval(m.Apps)
	return truePower, measured
}

// desLatency runs a per-interval discrete-event simulation (sampling at
// most ~20 k queries and scaling) and returns the tail latency and the
// in-target fraction, both shifted by the carried-backlog wait.
func (n *Node) desLatency(a *App, target, backlogWait, pct float64) (float64, float64) {
	if a.Alloc.Cores <= 0 || a.QPS <= 0 {
		return math.Inf(1), 0
	}
	cv := a.Profile.ArrivalCV
	if cv <= 0 {
		cv = 1
	}
	batch := (cv*cv + 1) / 2 // CVa² ≈ 2m−1 for geometric batches
	d := &queueing.DES{
		Servers:   a.Alloc.Cores,
		SvcMean:   a.LS.SvcMean,
		SvcCV:     a.Profile.SvcCV,
		BatchMean: batch,
		Rng:       n.rng,
	}
	lat := d.Run(a.QPS, 0.2, 1)
	if lat.N() == 0 {
		return math.Inf(1), 0
	}
	p := lat.Quantile(pct) + backlogWait
	frac := 0.0
	if budget := target - backlogWait; budget > 0 {
		frac = lat.FractionWithin(budget)
	}
	return p, frac
}

// stepBacklog advances the carried queue by one 1 s interval and returns
// the average extra wait new arrivals experienced behind it.
func (a *App) stepBacklog() float64 {
	qps, svcMean := a.QPS, a.LS.SvcMean
	if a.Alloc.Cores <= 0 || svcMean <= 0 {
		// No servers: everything offered this interval queues.
		a.Backlog += qps
		return math.Inf(1)
	}
	capacity := float64(a.Alloc.Cores) / svcMean // queries/s
	start := a.Backlog
	net := qps - capacity // backlog growth rate while positive

	var avg float64
	end := start + net
	switch {
	case end >= 0 && start >= 0:
		avg = start + net/2
	case start > 0 && end < 0:
		// Drains to zero partway through the interval.
		t0 := start / (capacity - qps)
		avg = (start / 2) * t0
		end = 0
	default:
		avg, end = 0, 0
	}
	if end < 0 {
		end = 0
	}
	// Client timeouts bound the queue: requests older than ~half a second
	// are abandoned (they still count as violated in the interval they
	// were offered), so an overload episode cannot poison minutes of
	// subsequent service.
	if limit := 0.5 * capacity; end > limit {
		end = limit
	}
	a.Backlog = end
	if avg < 0 {
		avg = 0
	}
	return avg / capacity
}

// Backlog returns the queries currently carried over (ground truth).
func (n *Node) Backlog() float64 { return n.pair[0].Backlog }

// ResetQueue clears carried backlog — used between profiling samples,
// where each measured configuration must start from a drained service
// (the paper's offline sweeps restart the load generator per point).
func (n *Node) ResetQueue() { n.pair[0].Backlog = 0 }
