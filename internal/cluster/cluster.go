// Package cluster models the context of the paper's Fig. 4: a
// cluster-level scheduler dispatches user queries across many
// Sturgeon-managed nodes. The paper's evaluation is single-node; this
// package provides the surrounding fleet so the node runtime can be
// studied at datacenter scale — per-node Sturgeon instances, a query
// dispatcher with pluggable policies, and fleet-level utilization and
// energy accounting.
package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"sturgeon/internal/control"
	"sturgeon/internal/coordinator"
	"sturgeon/internal/faults"
	"sturgeon/internal/hw"
	"sturgeon/internal/invariant"
	"sturgeon/internal/obs"
	"sturgeon/internal/pool"
	"sturgeon/internal/power"
	"sturgeon/internal/queueing"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

// DispatchPolicy selects the per-node share of the cluster's offered
// load each interval.
type DispatchPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// Shares returns non-negative weights (normalized by the caller)
	// given each node's most recent interval stats; nil stats on the
	// first interval.
	Shares(nodes []NodeState) []float64
}

// NodeState is the dispatcher-visible state of one node.
type NodeState struct {
	// Last is the node's previous interval (zero value on the first).
	Last sim.IntervalStats
	// Healthy is false while the node is considered out of rotation.
	Healthy bool
}

// sharesInto is the optional allocation-free fast path of a
// DispatchPolicy: SharesInto writes the same weights Shares would return
// into dst (length len(nodes)), assigning every index. The cluster's
// step loop uses it with a reused buffer; Shares remains the
// public contract and is implemented in terms of SharesInto by every
// built-in policy.
type sharesInto interface {
	SharesInto(nodes []NodeState, dst []float64)
}

// RoundRobin spreads load evenly — the baseline dispatcher.
type RoundRobin struct{}

// Name implements DispatchPolicy.
func (RoundRobin) Name() string { return "round-robin" }

// Shares implements DispatchPolicy.
func (RoundRobin) Shares(nodes []NodeState) []float64 {
	out := make([]float64, len(nodes))
	RoundRobin{}.SharesInto(nodes, out)
	return out
}

// SharesInto implements the allocation-free fast path.
func (RoundRobin) SharesInto(nodes []NodeState, dst []float64) {
	for i, n := range nodes {
		if n.Healthy {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// LeastLoaded weights nodes by smoothed latency headroom against the
// fleet average. The gain is deliberately small and the per-node p95 is
// EWMA-filtered: each node runs its own Sturgeon controller, and an
// aggressive dispatcher fighting twenty per-node control loops herds the
// fleet onto whichever node last looked fastest and saturates it.
type LeastLoaded struct {
	// Gain scales the share deviation (default 0.15); Alpha the p95
	// smoothing factor (default 0.2).
	Gain, Alpha float64

	smoothed []float64
}

// Name implements DispatchPolicy.
func (*LeastLoaded) Name() string { return "least-loaded" }

// Shares implements DispatchPolicy.
func (p *LeastLoaded) Shares(nodes []NodeState) []float64 {
	out := make([]float64, len(nodes))
	p.SharesInto(nodes, out)
	return out
}

// SharesInto implements the allocation-free fast path.
func (p *LeastLoaded) SharesInto(nodes []NodeState, dst []float64) {
	gain := p.Gain
	if gain <= 0 {
		gain = 0.15
	}
	alpha := p.Alpha
	if alpha <= 0 {
		alpha = 0.2
	}
	if len(p.smoothed) != len(nodes) {
		p.smoothed = make([]float64, len(nodes))
	}
	var sum float64
	var cnt int
	for i, n := range nodes {
		if n.Last.P95 > 0 {
			if p.smoothed[i] == 0 {
				p.smoothed[i] = n.Last.P95
			} else {
				p.smoothed[i] = alpha*n.Last.P95 + (1-alpha)*p.smoothed[i]
			}
		}
		if n.Healthy && p.smoothed[i] > 0 {
			sum += p.smoothed[i]
			cnt++
		}
	}
	if cnt == 0 {
		RoundRobin{}.SharesInto(nodes, dst)
		return
	}
	ref := sum / float64(cnt)
	for i, n := range nodes {
		if !n.Healthy {
			dst[i] = 0
			continue
		}
		if p.smoothed[i] <= 0 {
			dst[i] = 1
			continue
		}
		w := 1 + gain*(ref-p.smoothed[i])/ref
		if w < 1-gain {
			w = 1 - gain
		}
		if w > 1+gain {
			w = 1 + gain
		}
		dst[i] = w
	}
}

// Skewed spreads load unevenly and deterministically: node i's weight
// follows a phase-shifted sinusoid around 1, so at any instant some
// nodes run hot while others idle, and the roles rotate over a period.
// It models sharded or geo-affine services whose per-node load is never
// uniform — exactly the imbalance that makes fleet-level power-budget
// arbitration (internal/coordinator) worth having: an even watt split
// strands headroom on the cold nodes while the hot ones throttle.
type Skewed struct {
	// Amp is the weight swing around 1 (default 0.5, clamped to [0, 0.95]);
	// PeriodS the rotation period in intervals (default 120).
	Amp, PeriodS float64

	step int
}

// Name implements DispatchPolicy.
func (*Skewed) Name() string { return "skewed" }

// Shares implements DispatchPolicy. It keys the phase off an internal
// interval counter — Shares is called exactly once per simulated second,
// serially — so the schedule is a pure function of the call sequence.
func (p *Skewed) Shares(nodes []NodeState) []float64 {
	out := make([]float64, len(nodes))
	p.SharesInto(nodes, out)
	return out
}

// SharesInto implements the allocation-free fast path. It advances the
// same internal interval counter Shares does.
func (p *Skewed) SharesInto(nodes []NodeState, dst []float64) {
	amp := p.Amp
	if amp <= 0 {
		amp = 0.5
	}
	if amp > 0.95 {
		amp = 0.95
	}
	period := p.PeriodS
	if period <= 0 {
		period = 120
	}
	t := float64(p.step)
	p.step++
	for i, n := range nodes {
		if !n.Healthy {
			dst[i] = 0
			continue
		}
		phase := 2 * math.Pi * (t/period + float64(i)/float64(len(nodes)))
		dst[i] = 1 + amp*math.Sin(phase)
	}
}

// Coordination wires the fleet to a power-budget coordinator
// (internal/coordinator): every EpochS intervals each node reports its
// slack telemetry through the Transport and applies whatever cap comes
// back. Reports are submitted serially in node-index order inside Run's
// merge phase, so with the deterministic in-process transport the whole
// grant schedule — and therefore the run — stays byte-identical at any
// stepping Parallelism.
type Coordination struct {
	// Transport carries the reports (coordinator.Local for seeded
	// simulation, coordinator.Client for a remote sturgeond).
	Transport coordinator.Transport
	// EpochS is the reporting period in intervals (default 10).
	EpochS int
	// Kill optionally schedules deterministic coordinator crash windows:
	// every epoch inside a window is lost whole (nodes keep their
	// last-granted caps), and at the first epoch past a window Restart is
	// invoked to stand a recovered coordinator back up before grants
	// resume. Unlike a report-direction partition of every node (which
	// the coordinator merely fails to hear), a kill destroys the
	// coordinator's in-memory state — what survives is whatever Restart
	// can recover.
	Kill *faults.CoordKillPlan
	// Restart builds the replacement transport when a kill window ends —
	// the simulated restart-from-state-dir (coordinator.Recover against
	// the store the dead coordinator was persisting into). Nil, or an
	// erroring Restart, keeps the coordinator down, and the restart is
	// retried every epoch until one succeeds.
	Restart func() (coordinator.Transport, coordinator.RecoveryInfo, error)
	// RatchetSteps is the degraded-mode descent length in governor
	// intervals (simulated seconds): a node whose lease renewals stop
	// ratchets from its leased cap to its lease floor over this many
	// seconds, clamped so it lands no later than the lease expiry
	// (default control.DefaultRatchetSteps). Only read once the
	// coordinator's grants carry leases (coordinator.Options.LeaseEpochs).
	RatchetSteps int

	// net is the network-fault wrapper BuildCoordFleet put around the
	// transport (nil without one); finish reads its tallies. It is held
	// here rather than found by asserting Transport's type, so a caller
	// may decorate the transport without hiding the tallies.
	net *coordinator.NetChaos
	// restartDue marks a coordinator still down after a failed restart.
	restartDue bool
}

func (c *Coordination) epochS() int {
	if c.EpochS <= 0 {
		return 10
	}
	return c.EpochS
}

// CoordStats tallies the grant loop's activity over a run.
type CoordStats struct {
	// Epochs counts reporting rounds attempted.
	Epochs int
	// DroppedReports counts per-node submissions that never reached the
	// coordinator (Net.PartitionedOut); Fallbacks counts node-epochs
	// that kept the last-granted cap because no fresh grant arrived
	// (lost report or grant, crash or transport error).
	DroppedReports, Fallbacks int
	// CrashEpochs counts epochs lost to a coordinator kill window;
	// Recoveries counts successful restarts from durable state.
	CrashEpochs, Recoveries int
	// MovedW is the cumulative |Δcap| the fleet applied.
	MovedW float64
	// Leased marks runs whose grants carried fenced leases.
	// DegradedEpisodes counts entries into autonomous degraded mode
	// (first missed renewal of an episode), DegradedExits the renewals
	// that ended one, and StaleGrantRejects the grants the fencing token
	// refused; LeaseRatchetW is the cumulative watt volume the autonomous
	// ratchet shed.
	Leased                                             bool
	DegradedEpisodes, DegradedExits, StaleGrantRejects int
	LeaseRatchetW                                      float64
	// Net tallies the message fates imposed by a coordinator.NetChaos
	// transport wrapper (zero when the run had none).
	Net coordinator.NetStats
}

// Engine selects the fleet stepping strategy.
type Engine int

const (
	// EngineStep steps every node every simulated second — the reference
	// semantics and the default.
	EngineStep Engine = iota
	// EngineEvent is the discrete-event engine (DESIGN.md §13): nodes at
	// a proven fixed point skip ahead to their next scheduled wake-up
	// (fault edges, coordinator epochs, eviction/backoff timers, trace
	// breakpoints), and fully quiescent stretches are replicated without
	// touching the fleet. Seeded runs are byte-identical to EngineStep —
	// same Summary, same journal — at any Parallelism.
	EngineEvent
)

// Cluster is a fleet of identical Sturgeon-managed nodes serving one LS
// service, each co-located with a BE application.
type Cluster struct {
	Nodes  []*sim.Node
	Ctrls  []control.Controller
	Budget power.Watts
	Policy DispatchPolicy
	// LS is the fleet's service; PeakQPS scales the cluster trace.
	LS workload.Profile
	// Health tunes the failure detector (zero value = defaults).
	Health HealthOptions
	// Injectors optionally carries one fault injector per node (nil
	// entries run that node clean). Install with InjectFaults or
	// SetFaultPlans.
	Injectors []*faults.Injector
	// Coord, when non-nil, subjects the fleet to coordinated per-node
	// power caps (see Coordination). Nil fleets run every node at the
	// static Budget, exactly as before.
	Coord *Coordination
	// Place, when non-nil, puts the fleet's BE jobs under the placement
	// and migration engine (see Placement). Nil fleets keep whatever
	// pairing they were built with.
	Place *Placement
	// Parallelism is the per-interval node-stepping fan-out: 0 (the
	// default) uses GOMAXPROCS workers, 1 steps the fleet serially, n > 1
	// caps the pool at n. Each node owns its simulator, controller and
	// injector state, shares are computed before the fan-out and all
	// cross-node aggregation happens serially in node-index order
	// afterwards, so the setting changes wall-clock time only — seeded
	// runs are byte-identical at every worker count (see DESIGN.md §9).
	Parallelism int
	// Engine selects per-second stepping (EngineStep, the default) or the
	// discrete-event engine (EngineEvent). Both produce byte-identical
	// results; EngineEvent is orders of magnitude faster on large, mostly
	// quiescent fleets.
	Engine Engine
	// TraceBreaks lists every step index at which the load trace may
	// change value (workload.Stair.BreakSteps supplies it). Only
	// EngineEvent reads it: a declared-piecewise-constant trace lets
	// quiescent stretches be skipped whole, while a nil TraceBreaks makes
	// the engine conservatively treat every second as a potential
	// inflection. The contract is one-sided — listing extra steps is
	// harmless, omitting a step where the trace moves breaks the
	// cross-engine equivalence.
	TraceBreaks []int

	// Invariants, when non-nil, receives the fleet's effective-cap view
	// every merged second and the coordinator's ground-truth status after
	// every reachable epoch exchange (internal/invariant). Strictly
	// read-only: attaching a checker never changes a run's results.
	Invariants *invariant.Checker

	// rng is the fleet's sole randomness source, injected via the New
	// seed — no package-level math/rand is consulted anywhere, so two
	// clusters built with the same seed behave identically (including
	// under `go test -count=2` and the chaos harness).
	rng *rand.Rand
	// caps is each node's power cap currently in force: Budget
	// everywhere until a coordinator grant moves it.
	caps []power.Watts
	// leases tracks each node's fenced cap lease; nil until the first
	// leased grant arrives (coordinator.Options.LeaseEpochs > 0), so
	// lease-free fleets take none of these paths. ratcheted flags nodes
	// whose cap the autonomous ratchet moved during the current merge —
	// the event engine routes those cap changes through KindLease
	// wake-ups instead of settle events, which is what makes the lease
	// wake category load-bearing (and testable by dropping it).
	leases    []control.LeaseTracker
	ratcheted []bool
	// invViews is the reusable scratch buffer behind observeInvariants.
	invViews []invariant.NodeView

	// Observability (nil = uninstrumented; see SetObs). nodeSinks holds
	// one staging child per node, drained serially by drainNode; drained
	// and spanDrained remember each staging journal's/tracer's last
	// merged sequence number.
	obs         *obs.Sink
	nodeSinks   []*obs.Sink
	drained     []int64
	spanDrained []int64
	capGauges   []*obs.Gauge
	evictCtr    *obs.Counter
	readmitCtr  *obs.Counter
	grantCtr    *obs.Counter
	faultCtr    *obs.Counter
	recoveryCtr *obs.Counter
	migrCtr     *obs.Counter
	planCtr     *obs.Counter
	// Fleet timeline series (nil = no recorder attached), fed once per
	// simulated second from the serial merge — and from runEvent's
	// replication loop, so both engines record identical timelines.
	tlBE    *obs.TSeries
	tlQoS   *obs.TSeries
	tlPower *obs.TSeries
	tlCap   *obs.TSeries
	tlSlack *obs.TSeries
	tlMigr  *obs.TSeries

	// Broken-scheduler stubs for the quiescence regression battery: each
	// suppresses one wake-up category in runEvent, simulating the
	// scheduling bug the category exists to prevent. Tests assert the
	// stubbed engine *diverges* from EngineStep while the real engine
	// does not. Never set outside tests.
	testDropFaultWakes  bool
	testDropEpochWakes  bool
	testDropTraceWakes  bool
	testDropHealthWakes bool
	testDropPlaceWakes  bool
	testDropLeaseWakes  bool

	// testDisableMemo forces cross-node memo sharing off in runEvent.
	// The obs-overhead gate sets it on the nil-sink baseline so both
	// arms run the same engine policy: attaching a sink already disables
	// memo sharing by design (per-node metrics must track per-node
	// decisions), and the gate bounds instrumentation cost, not that
	// documented policy trade. Never set outside tests.
	testDisableMemo bool

	// evActive counts the seconds the last runEvent actually evaluated
	// (as opposed to replicating); see EventActiveSeconds.
	evActive int
}

// EventActiveSeconds reports how many simulated seconds the last
// EngineEvent run evaluated node-by-node rather than replicating from a
// fixed point — the engine's work metric. Zero before any event run;
// equal to the horizon when nothing could be skipped.
func (c *Cluster) EventActiveSeconds() int { return c.evActive }

// stagingJournalCap bounds each node's staging journal. A node emits at
// most a handful of events per interval and the staging ring is drained
// every interval, so a small ring can never drop.
const stagingJournalCap = 64

// NodeID renders the canonical node identity used in coordinator
// reports, journal events and per-node metric labels.
func NodeID(i int) string { return fmt.Sprintf("node-%03d", i) }

// SetObs attaches a decision-trail sink to the fleet (nil detaches).
// Every controller that implements obs.Instrumentable receives a
// per-node child sink — same metrics registry, own staging journal — so
// journal appends never race across the parallel node stepping. The
// staging journals are drained onto sink's journal serially in
// node-index order each interval (see drainNode), which keeps the
// global event sequence byte-identical at any stepping Parallelism.
func (c *Cluster) SetObs(sink *obs.Sink) {
	c.obs = sink
	c.nodeSinks, c.drained, c.spanDrained, c.capGauges = nil, nil, nil, nil
	c.evictCtr, c.readmitCtr, c.grantCtr, c.faultCtr, c.recoveryCtr = nil, nil, nil, nil, nil
	c.migrCtr, c.planCtr = nil, nil
	c.tlBE, c.tlQoS, c.tlPower, c.tlCap, c.tlSlack, c.tlMigr = nil, nil, nil, nil, nil, nil
	if sink == nil {
		for _, ctrl := range c.Ctrls {
			if in, ok := ctrl.(obs.Instrumentable); ok {
				in.SetObs(nil)
			}
		}
		return
	}
	n := len(c.Nodes)
	c.nodeSinks = make([]*obs.Sink, n)
	c.drained = make([]int64, n)
	c.spanDrained = make([]int64, n)
	c.capGauges = make([]*obs.Gauge, n)
	for i := 0; i < n; i++ {
		ns := sink.ForNode(NodeID(i), stagingJournalCap)
		c.nodeSinks[i] = ns
		c.capGauges[i] = ns.NodeGauge("fleet_node_cap_watts")
		c.capGauges[i].Set(float64(c.caps[i]))
		if in, ok := c.Ctrls[i].(obs.Instrumentable); ok {
			in.SetObs(ns)
		}
	}
	c.evictCtr = sink.Counter("fleet_evictions_total")
	c.readmitCtr = sink.Counter("fleet_readmissions_total")
	c.grantCtr = sink.Counter("fleet_cap_grants_total")
	c.faultCtr = sink.Counter("fleet_faults_injected_total")
	c.recoveryCtr = sink.Counter("fleet_coord_recoveries_total")
	c.migrCtr = sink.Counter("fleet_migrations_total")
	c.planCtr = sink.Counter("fleet_placement_plans_total")
	if sink.Timeline != nil {
		c.tlBE = sink.Series("fleet_be_ups")
		c.tlQoS = sink.Series("fleet_qos")
		c.tlPower = sink.Series("fleet_power_w")
		c.tlCap = sink.Series("fleet_cap_w")
		c.tlSlack = sink.Series("fleet_slack_w")
		c.tlMigr = sink.Series("fleet_migrations")
	}
}

// New builds a fleet of n nodes. mkCtrl builds one controller per node
// (they must not be shared — controllers carry state).
func New(n int, ls, be workload.Profile, budget power.Watts,
	policy DispatchPolicy, seed int64, mkCtrl func(i int) control.Controller) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	c := &Cluster{Budget: budget, Policy: policy, LS: ls, rng: rand.New(rand.NewSource(seed))}
	// One latency-solve cache for the whole fleet: nodes offered the same
	// arrival rate at the same configuration share a single analytic
	// solve per interval. Solves are pure functions of the queue
	// parameters, so sharing cannot change any node's results.
	lat := queueing.NewCache()
	for i := 0; i < n; i++ {
		node := sim.NewNode(ls, be, seed+int64(i)*7919)
		node.Latency = lat
		if err := node.Apply(hw.SoloLS(node.Spec)); err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)
		c.Ctrls = append(c.Ctrls, mkCtrl(i))
		c.caps = append(c.caps, budget)
	}
	return c, nil
}

// Caps returns a copy of the per-node power caps currently in force.
func (c *Cluster) Caps() []power.Watts {
	return append([]power.Watts(nil), c.caps...)
}

// InjectFaults materializes one deterministic fault plan per node from
// spec, deriving every per-node seed from the cluster's injected rng so
// the whole chaos schedule is a pure function of the cluster seed.
func (c *Cluster) InjectFaults(spec faults.Spec, durationS int) {
	c.Injectors = make([]*faults.Injector, len(c.Nodes))
	for i := range c.Nodes {
		planSeed := c.rng.Int63()
		noiseSeed := c.rng.Int63()
		c.Injectors[i] = faults.NewInjector(faults.New(spec, planSeed, durationS), noiseSeed)
	}
}

// SetFaultPlans installs explicit per-node plans (nil entries run that
// node clean) — the scripted-scenario entry point of the test battery.
// Plans beyond len(Nodes) are ignored; missing ones are nil.
func (c *Cluster) SetFaultPlans(plans ...*faults.Plan) {
	c.Injectors = make([]*faults.Injector, len(c.Nodes))
	for i := range c.Nodes {
		if i < len(plans) && plans[i] != nil {
			c.Injectors[i] = faults.NewInjector(plans[i], c.rng.Int63())
		}
	}
}

// injector returns node i's injector, or nil when the fleet runs clean.
func (c *Cluster) injector(i int) *faults.Injector {
	if i < len(c.Injectors) {
		return c.Injectors[i]
	}
	return nil
}

// IntervalReport aggregates one cluster interval.
type IntervalReport struct {
	Time float64
	// TotalQPS is the cluster-wide offered load; QoSFrac the
	// query-weighted in-target fraction.
	TotalQPS float64
	QoSFrac  float64
	// BEThroughputUPS is summed best-effort progress.
	BEThroughputUPS float64
	// PowerW is summed true node power; OverloadedNodes counts nodes
	// above their budget this interval.
	PowerW          float64
	OverloadedNodes int
	// CapSpreadW is max − min of the per-node caps in force (0 unless a
	// coordinator has moved watts between nodes).
	CapSpreadW float64
}

// Result aggregates a cluster run.
type Result struct {
	Intervals []IntervalReport
	// QoSRate is the fleet-wide query-weighted guarantee rate.
	QoSRate float64
	// MeanBEThroughputUPS is the fleet's average best-effort rate.
	MeanBEThroughputUPS float64
	// MeanPowerW is the fleet's average total draw; EnergyKJ the total
	// energy; WorkPerKJ the best-effort units bought per kilojoule.
	MeanPowerW float64
	EnergyKJ   float64
	WorkPerKJ  float64
	// LostQueries is the offered load dispatched to crashed nodes (each
	// such query counts as a QoS violation in QoSRate).
	LostQueries float64
	// Health summarizes failure-detector activity; Faults tallies the
	// injected faults across the fleet (both zero on clean runs).
	Health HealthStats
	Faults faults.Counters
	// Coordinated marks runs stepped under a power-budget coordinator;
	// Coord tallies the grant loop (zero otherwise).
	Coordinated bool
	Coord       CoordStats
	// Placed marks runs stepped under the placement engine; Place
	// tallies its planning and migration activity (zero otherwise).
	Placed bool
	Place  PlacementStats
}

// Summary renders a stable fixed-precision digest of the run for
// golden-file comparison and determinism checks: headline metrics, the
// fault and health tallies, and every tenth interval's trajectory. Any
// semantic drift in the simulator, dispatcher or fault layer shows up as
// a diff against the checked-in fixture.
func (r Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "intervals %d\n", len(r.Intervals))
	fmt.Fprintf(&b, "qos_rate %.6f\n", r.QoSRate)
	fmt.Fprintf(&b, "be_ups %.4f\n", r.MeanBEThroughputUPS)
	fmt.Fprintf(&b, "mean_power_w %.4f\n", r.MeanPowerW)
	fmt.Fprintf(&b, "energy_kj %.4f\n", r.EnergyKJ)
	fmt.Fprintf(&b, "work_per_kj %.4f\n", r.WorkPerKJ)
	fmt.Fprintf(&b, "lost_queries %.2f\n", r.LostQueries)
	fmt.Fprintf(&b, "health evictions %d readmissions %d unhealthy_intervals %d\n",
		r.Health.Evictions, r.Health.Readmissions, r.Health.UnhealthyNodeIntervals)
	fmt.Fprintf(&b, "faults %s\n", r.Faults)
	if r.Coordinated {
		fmt.Fprintf(&b, "coord epochs %d fallbacks %d moved_w %.2f\n",
			r.Coord.Epochs, r.Coord.Fallbacks, r.Coord.MovedW)
		if r.Coord.CrashEpochs+r.Coord.Recoveries > 0 {
			fmt.Fprintf(&b, "coord_crash epochs %d recoveries %d\n",
				r.Coord.CrashEpochs, r.Coord.Recoveries)
		}
		if r.Coord.Leased {
			fmt.Fprintf(&b, "coord_lease degraded %d exits %d stale_rejects %d ratchet_w %.2f\n",
				r.Coord.DegradedEpisodes, r.Coord.DegradedExits,
				r.Coord.StaleGrantRejects, r.Coord.LeaseRatchetW)
		}
		if r.Coord.Net != (coordinator.NetStats{}) {
			fmt.Fprintf(&b, "coord_net part_out %d part_in %d delayed %d late %d dup %d reorder %d\n",
				r.Coord.Net.PartitionedOut, r.Coord.Net.PartitionedIn,
				r.Coord.Net.Delayed, r.Coord.Net.DeliveredLate, r.Coord.Net.Duplicated,
				r.Coord.Net.Reordered)
		}
	}
	if r.Placed {
		fmt.Fprintf(&b, "placement jobs %d plans %d moves %d starved %d consolidate %d warmup_lost_ups %.2f\n",
			r.Place.Jobs, r.Place.Plans, r.Place.Moves, r.Place.StarvedMoves,
			r.Place.ConsolidateMoves, r.Place.WarmupLostUPS)
	}
	for i, iv := range r.Intervals {
		if i%10 != 0 {
			continue
		}
		fmt.Fprintf(&b, "t=%04.0f qps %.1f qos %.4f be %.2f pw %.2f over %d",
			iv.Time, iv.TotalQPS, iv.QoSFrac, iv.BEThroughputUPS, iv.PowerW, iv.OverloadedNodes)
		if r.Coordinated {
			fmt.Fprintf(&b, " cap %.1f", iv.CapSpreadW)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// stepOutcome is what one node's fan-out task hands back to the serial
// merge: the dispatched share, whether the node was down, and the
// (possibly perturbed) interval telemetry.
type stepOutcome struct {
	q       float64
	crashed bool
	st      sim.IntervalStats
	// held records that the controller returned the observation's config
	// unchanged, so no actuation was attempted — one of the event
	// engine's fixed-point conditions.
	held bool
}

// stepNode advances node i through simulated second step with dispatched
// load q. It touches exclusively node-i state — the node's simulator,
// its controller and its injector — which is what makes the per-interval
// fan-out in Run safe: no two tasks share any mutable state, and all
// fleet-level reductions happen in Run's serial merge.
func (c *Cluster) stepNode(i, step int, t, q float64) stepOutcome {
	node := c.Nodes[i]
	inj := c.injector(i)

	if inj.Crashed(step) {
		// The node is down: its dispatched share is lost and its
		// telemetry goes dark (the 0 W reading is what the failure
		// detector keys on).
		return stepOutcome{q: q, crashed: true,
			st: sim.IntervalStats{Time: t, QPS: q, Faults: inj.Flags(step)}}
	}
	if step > 0 && inj.CrashedAt(step-1) {
		// Reboot: drained queue, boot configuration.
		node.ResetQueue()
		_ = node.Apply(hw.SoloLS(node.Spec))
	}

	st := node.Step(t, q)
	if inj != nil {
		st.Power = inj.PerturbPower(step, st.Power)
		st.P95 = inj.PerturbP95(step, st.P95)
		st.Faults = inj.Flags(step)
	}
	ob := control.Observation{
		Time: t, QPS: st.QPS, P95: st.P95,
		Target: c.LS.QoSTargetS,
		Power:  st.Power, Budget: c.caps[i],
		BEThroughput: st.BEThroughputUPS, Config: st.Config,
	}
	next := c.Ctrls[i].Decide(ob)
	if next != st.Config {
		inj.Actuate(step, st.Config, next, node.Apply)
	}
	return stepOutcome{q: q, st: st, held: next == st.Config}
}

// Run drives the fleet for duration seconds under a cluster-wide load
// trace (fraction of n×PeakQPS). Crashed nodes drop their dispatched
// share (those queries count as violated) until the failure detector
// evicts them and the dispatch policies renormalize the survivors'
// shares; recovered nodes re-admit after a backoff probation.
//
// Each simulated second the fleet is stepped on Parallelism workers:
// shares are computed up front from the previous interval's states, the
// per-node work (simulator physics, telemetry perturbation, controller
// decision, actuation) fans out, and the failure detector plus every
// fleet-level accumulator then runs serially in node-index order over
// the collected outcomes — floating-point reductions see operands in
// exactly the serial program's order, so the result is byte-identical
// at any worker count.
func (c *Cluster) Run(tr workload.Trace, durationS int) Result {
	if c.Engine == EngineEvent {
		return c.runEvent(tr, durationS)
	}
	return c.runStep(tr, durationS)
}

// runStep is the per-second reference engine: every node is stepped at
// every simulated second. runEvent (engine.go) must stay byte-identical
// to it, which is why the serial merge and the run finalization live in
// mergeSecond and finish, shared by both engines — floating-point
// reductions see operands in exactly the same order either way.
func (c *Cluster) runStep(tr workload.Trace, durationS int) Result {
	n := len(c.Nodes)
	opt := c.Health.withDefaults()
	states := make([]NodeState, n)
	health := make([]nodeHealth, n)
	for i := range states {
		states[i].Healthy = true
	}
	outs := make([]stepOutcome, n)
	shareBuf := make([]float64, n)
	fastShares, hasFast := c.Policy.(sharesInto)

	var res Result
	res.Intervals = make([]IntervalReport, 0, durationS)
	var wOK, wQ, sumBE, sumPW float64
	for step := 0; step < durationS; step++ {
		t := float64(step + 1)
		total := tr(t) * c.LS.PeakQPS * float64(n)

		shares := shareBuf
		if hasFast {
			fastShares.SharesInto(states, shareBuf)
		} else {
			shares = c.Policy.Shares(states)
		}
		var norm float64
		for _, s := range shares {
			norm += s
		}

		// Fan out: one task per node, results into index-i slots.
		pool.ForEach(c.Parallelism, n, func(i int) {
			q := 0.0
			if norm > 0 {
				q = total * shares[i] / norm
			}
			outs[i] = c.stepNode(i, step, t, q)
		})

		rep, okQ := c.mergeSecond(step, t, total, outs, states, health, opt, &res)
		wOK += okQ
		wQ += total
		sumBE += rep.BEThroughputUPS
		sumPW += rep.PowerW
		res.Intervals = append(res.Intervals, rep)
	}
	c.finish(&res, wOK, wQ, sumBE, sumPW, durationS)
	return res
}

// mergeSecond is the serial per-interval reduction both engines share:
// failure detection, journal draining, the fleet accumulators and the
// coordination epoch, all in node-index order over the collected
// outcomes. It returns the interval report and the query-weighted
// in-target load okQ.
func (c *Cluster) mergeSecond(step int, t, total float64, outs []stepOutcome,
	states []NodeState, health []nodeHealth, opt HealthOptions, res *Result) (IntervalReport, float64) {
	rep := IntervalReport{Time: t, TotalQPS: total}
	var okQ float64
	for i := range outs {
		o := &outs[i]
		if o.crashed {
			res.LostQueries += o.q
			states[i].Last = o.st
			wasHealthy := states[i].Healthy
			states[i].Healthy = health[i].observe(true, opt, &res.Health)
			if !states[i].Healthy {
				res.Health.UnhealthyNodeIntervals++
			}
			c.drainNode(i, t, wasHealthy, states[i].Healthy)
			// A warming node's clock keeps draining while it is down.
			_ = c.chargeWarmup(i, 0, res)
			continue
		}
		st := o.st
		states[i].Last = st
		wasHealthy := states[i].Healthy
		states[i].Healthy = health[i].observe(st.Power <= 0, opt, &res.Health)
		if !states[i].Healthy {
			res.Health.UnhealthyNodeIntervals++
		}
		c.drainNode(i, t, wasHealthy, states[i].Healthy)
		if c.obs != nil && o.held {
			// The node settled: close the causal window so later decisions
			// no longer chain under a long-gone cap grant or migration.
			// Idempotent, so the event engine's replicated (all-held)
			// seconds skipping this clear cannot diverge.
			c.nodeSinks[i].SetSpanContext(obs.SpanRef{})
		}
		okQ += st.QPS * st.QoSFrac
		rep.BEThroughputUPS += c.chargeWarmup(i, st.BEThroughputUPS, res)
		rep.PowerW += float64(st.TruePower)
		if st.TruePower > c.caps[i] {
			rep.OverloadedNodes++
		}
	}
	if total > 0 {
		rep.QoSFrac = okQ / total
	} else {
		rep.QoSFrac = 1
	}

	// Fleet coordination: at epoch boundaries every node reports its
	// slack telemetry and applies the cap granted back. This runs in
	// the serial section, in node-index order, so the grant schedule
	// is identical at every stepping parallelism.
	if c.Coord != nil && c.Coord.Transport != nil {
		epochS := c.Coord.epochS()
		if (step+1)%epochS == 0 {
			c.exchangeGrants((step+1)/epochS, states, res)
		}
		if c.leases != nil {
			c.applyRatchet(t, res)
		}
		lo, hi := c.caps[0], c.caps[0]
		for _, w := range c.caps {
			lo = min(lo, w)
			hi = max(hi, w)
		}
		rep.CapSpreadW = float64(hi - lo)
	}
	if c.Invariants != nil {
		c.observeInvariants(t)
	}

	// Placement epochs run after coordination so the planner sees the
	// caps in force for the next interval. Same serial-section argument:
	// the move schedule is identical at every stepping parallelism.
	if c.Place != nil && c.Place.Planner != nil {
		if epochS := c.Place.epochS(); (step+1)%epochS == 0 {
			c.exchangeMoves((step+1)/epochS, step, states, res)
		}
	}
	c.recordInterval(rep, res)
	return rep, okQ
}

// recordInterval feeds the fleet timeline series for one simulated
// second. Called from mergeSecond (both engines' active seconds) and
// from runEvent's replication loop, so the recorded timeline is a pure
// function of the interval sequence — byte-identical across engines
// and stepping parallelism.
func (c *Cluster) recordInterval(rep IntervalReport, res *Result) {
	if c.tlBE == nil {
		return
	}
	t := rep.Time
	c.tlBE.Observe(t, rep.BEThroughputUPS)
	c.tlQoS.Observe(t, rep.QoSFrac)
	c.tlPower.Observe(t, rep.PowerW)
	var capSum float64
	for _, w := range c.caps {
		capSum += float64(w)
	}
	c.tlCap.Observe(t, capSum)
	c.tlSlack.Observe(t, capSum-rep.PowerW)
	c.tlMigr.Observe(t, float64(res.Place.Moves))
}

// finish folds the run accumulators into the Result — shared by both
// engines so the final divisions see bit-equal operands.
func (c *Cluster) finish(res *Result, wOK, wQ, sumBE, sumPW float64, durationS int) {
	for i := range c.Injectors {
		if c.Injectors[i] != nil {
			res.Faults.Add(c.Injectors[i].C)
		}
	}
	if total := res.Faults.Total(); total > 0 {
		c.faultCtr.Add(int64(total))
	}
	if c.Place != nil {
		res.Placed = true
		res.Place.Jobs = len(c.Place.Jobs)
	}
	if res.Coordinated && c.Coord.net != nil {
		res.Coord.Net = c.Coord.net.Stats()
		res.Coord.DroppedReports = res.Coord.Net.PartitionedOut
	}

	if wQ > 0 {
		res.QoSRate = wOK / wQ
	} else {
		res.QoSRate = 1
	}
	d := float64(max(1, durationS))
	res.MeanBEThroughputUPS = sumBE / d
	res.MeanPowerW = sumPW / d
	res.EnergyKJ = sumPW / 1e3
	if res.EnergyKJ > 0 {
		res.WorkPerKJ = sumBE / res.EnergyKJ
	}
}

// restartCoordinator runs the Coordination's Restart hook and, on
// success, swaps in the recovered transport and records the recovery.
// A nil hook, an error or a nil transport leaves the coordinator down.
// It reports whether the coordinator is back up.
func (c *Cluster) restartCoordinator(epoch int, res *Result) bool {
	cd := c.Coord
	if cd.Restart == nil {
		return false
	}
	tr, info, err := cd.Restart()
	if err != nil || tr == nil {
		return false
	}
	cd.Transport = tr
	res.Coord.Recoveries++
	if c.obs != nil {
		c.recoveryCtr.Inc()
		c.obs.Emit(obs.Event{T: float64(epoch * cd.epochS()),
			Type: obs.EventRecoveryCompleted, Reason: info.Reason,
			Epoch: epoch, Value: float64(info.ReplayedReports)})
	}
	return true
}

// drainNode moves node i's staged decision events and spans onto the
// fleet journal/tracer and journals failure-detector transitions. It
// runs only from Run's serial merge, in node-index order, so the fleet
// journal's and trace's sequence numbers are a pure function of the
// seeded decision sequence — independent of the stepping Parallelism.
func (c *Cluster) drainNode(i int, t float64, wasHealthy, healthy bool) {
	if c.obs == nil {
		return
	}
	ns := c.nodeSinks[i]
	c.drained[i] = ns.Journal.DrainTo(c.obs.Journal, c.drained[i])
	if ns.Trace != nil && c.obs.Trace != nil {
		c.spanDrained[i] = ns.Trace.DrainTo(c.obs.Trace, c.spanDrained[i])
	}
	switch {
	case wasHealthy && !healthy:
		c.evictCtr.Inc()
		c.obs.Emit(obs.Event{T: t, Node: ns.Node, Type: obs.EventNodeEvicted})
		c.obs.Span(obs.Span{Kind: obs.SpanEviction, Node: ns.Node, Start: t, End: t})
	case !wasHealthy && healthy:
		c.readmitCtr.Inc()
		c.obs.Emit(obs.Event{T: t, Node: ns.Node, Type: obs.EventNodeReadmitted})
		c.obs.Span(obs.Span{Kind: obs.SpanReadmission, Node: ns.Node, Start: t, End: t})
	}
}

// exchangeGrants runs one coordination epoch: build each node's report
// from its latest interval, submit through the transport, and apply the
// granted caps. Any node whose epoch falls in a coordinator kill window,
// or whose submission errors (a network-fault wrapper severing it
// included), keeps its last-granted cap — the degradation contract of
// DESIGN.md §10.
func (c *Cluster) exchangeGrants(epoch int, states []NodeState, res *Result) {
	res.Coordinated = true
	res.Coord.Epochs++
	cd := c.Coord
	tEpoch := float64(epoch * cd.epochS())
	// Coordinator kill windows come before everything else: a crashed
	// coordinator can neither serve grants nor hear reports. Restart
	// fires on the first epoch past a window, standing a recovered
	// coordinator up *before* this epoch's reports go out — the restarted
	// control plane serves the same epoch it recovered in. A failed
	// restart leaves the coordinator down and is retried next epoch; the
	// pre-kill transport is never used again.
	if cd.Kill != nil {
		down := cd.Kill.DownAt(epoch)
		if !down && (cd.restartDue || cd.Kill.RestartAt(epoch)) {
			down = !c.restartCoordinator(epoch, res)
			cd.restartDue = down
		}
		if down {
			res.Coord.CrashEpochs++
			res.Coord.Fallbacks += len(c.Nodes)
			for i := range c.leases {
				c.leaseMiss(i, tEpoch, epoch, res)
			}
			return
		}
	}
	// The epoch-close span roots this epoch's causal chain; every cap
	// change that lands below links back to it, and the receiving node's
	// sink carries the grant ref forward so the governor/search spans the
	// grant provokes chain under it end to end.
	epochRef := c.obs.ChildSpan(obs.Span{Kind: obs.SpanCoordEpoch,
		Start: tEpoch, End: tEpoch, Epoch: epoch}, obs.SpanRef{})
	target := c.LS.QoSTargetS
	for i := range c.Nodes {
		last := states[i].Last
		p95 := last.P95
		if math.IsNaN(p95) || math.IsInf(p95, 0) || target <= 0 {
			// Blind latency telemetry: nothing arbitration-worthy to say.
			// From the lease's point of view a withheld report is a missed
			// renewal all the same — the coordinator will expire the grant
			// either way, so the node must start degrading toward its floor.
			res.Coord.Fallbacks++
			c.leaseMiss(i, tEpoch, epoch, res)
			continue
		}
		r := coordinator.NodeReport{
			Schema:          coordinator.Schema,
			NodeID:          NodeID(i),
			Epoch:           epoch,
			Slack:           (target - p95) / target,
			P95S:            p95,
			PowerW:          float64(last.Power),
			CapW:            float64(c.caps[i]),
			BEThroughputUPS: last.BEThroughputUPS,
			Healthy:         states[i].Healthy,
		}
		g, err := cd.Transport.Report(context.Background(), r)
		if err != nil {
			res.Coord.Fallbacks++
			c.leaseMiss(i, tEpoch, epoch, res)
			continue
		}
		if g.LeaseEpochs > 0 {
			c.ensureLeases()
			lt := &c.leases[i]
			wasDegraded, since := lt.Degraded(), lt.DegradedSince()
			lease := control.Lease{CapW: power.Watts(g.CapW), FloorW: power.Watts(g.FloorW),
				Token: g.Token, ExpiresAtS: float64((epoch + g.LeaseEpochs) * cd.epochS())}
			if !lt.Renew(lease) {
				// Fencing: a grant carrying an older token than one already
				// accepted is a pre-partition straggler; applying it could
				// resurrect a cap the coordinator has since reclaimed.
				res.Coord.StaleGrantRejects++
				res.Coord.Fallbacks++
				c.leaseMiss(i, tEpoch, epoch, res)
				continue
			}
			res.Coord.Leased = true
			if wasDegraded {
				res.Coord.DegradedExits++
				if c.obs != nil {
					c.obs.Emit(obs.Event{T: tEpoch, Node: r.NodeID,
						Type: obs.EventDegradedExit, Epoch: epoch, Value: g.CapW})
					c.obs.Span(obs.Span{Kind: obs.SpanDegraded, Node: r.NodeID,
						Start: since, End: tEpoch, Epoch: epoch, Value: g.FloorW})
				}
			}
		}
		if next := power.Watts(g.CapW); g.CapW > 0 && next != c.caps[i] {
			res.Coord.MovedW += math.Abs(g.CapW - float64(c.caps[i]))
			c.caps[i] = next
			if cs, ok := c.Ctrls[i].(control.CapSetter); ok {
				cs.SetBudget(next)
			}
			if c.obs != nil {
				c.grantCtr.Inc()
				c.capGauges[i].Set(g.CapW)
				c.obs.Emit(obs.Event{T: tEpoch, Node: r.NodeID,
					Type: obs.EventCapGranted, Epoch: epoch, Value: g.CapW})
				ref := c.obs.ChildSpan(obs.Span{Kind: obs.SpanCapGrant, Node: r.NodeID,
					Start: tEpoch, End: tEpoch, Epoch: epoch, Value: g.CapW}, epochRef)
				c.nodeSinks[i].SetSpanContext(ref)
			}
		}
	}
	// Ground truth for the invariant harness: the status fetch is
	// out-of-band observation, not node traffic (NetChaos passes it
	// through), and is skipped whole on killed epochs above — a down
	// coordinator answers nothing.
	if c.Invariants != nil {
		if st, err := cd.Transport.Status(context.Background()); err == nil {
			c.Invariants.ObserveStatus(tEpoch, st)
		}
	}
}

// ensureLeases allocates the per-node lease trackers on the first
// leased grant. Allocation happens inside the serial merge, so the
// lease state is a pure function of the grant sequence.
func (c *Cluster) ensureLeases() {
	if c.leases != nil {
		return
	}
	c.leases = make([]control.LeaseTracker, len(c.Nodes))
	c.ratcheted = make([]bool, len(c.Nodes))
	if c.Coord.RatchetSteps > 0 {
		for i := range c.leases {
			c.leases[i].RatchetSteps = c.Coord.RatchetSteps
		}
	}
}

// leaseMiss records a failed renewal for node i at time t. The first
// miss of an episode enters autonomous degraded mode: from the next
// interval on, applyRatchet walks the node's cap down toward its lease
// floor. No-op while the node holds no lease (lease-free fleets, or a
// node partitioned away before its first grant — its boot-time static
// cap is already the even split the floor would impose).
func (c *Cluster) leaseMiss(i int, t float64, epoch int, res *Result) {
	if c.leases == nil {
		return
	}
	if c.leases[i].Miss(t) {
		res.Coord.DegradedEpisodes++
		if c.obs != nil {
			c.obs.Emit(obs.Event{T: t, Node: NodeID(i), Type: obs.EventDegradedEnter,
				Epoch: epoch, Value: float64(c.caps[i])})
		}
	}
}

// applyRatchet advances every degraded node's autonomous cap descent by
// one governor interval: the cap applied at the end of second t governs
// second t+1, so it is evaluated at t+1 — by the lease expiry the node
// is exactly at its floor, meeting the coordinator's reclaim from the
// other side. Runs in the serial merge right after the coordination
// exchange; the event engine routes the resulting cap changes through
// KindLease wake-ups (engine.go).
func (c *Cluster) applyRatchet(t float64, res *Result) {
	for i := range c.leases {
		c.ratcheted[i] = false
		lt := &c.leases[i]
		if !lt.Degraded() {
			continue
		}
		w, ok := lt.CapAt(t + 1)
		if !ok || w == c.caps[i] {
			continue
		}
		res.Coord.LeaseRatchetW += math.Abs(float64(w - c.caps[i]))
		c.caps[i] = w
		c.ratcheted[i] = true
		if cs, ok := c.Ctrls[i].(control.CapSetter); ok {
			cs.SetBudget(w)
		}
		if c.obs != nil {
			c.capGauges[i].Set(float64(w))
		}
	}
}

// observeInvariants feeds the checker one second's fleet view: the caps
// in force entering second t+1 against the coordinator book recorded at
// the newest reachable epoch. Between epochs the book is stale but caps
// only move down (the ratchet), so staleness can never mask a
// violation.
func (c *Cluster) observeInvariants(t float64) {
	if cap(c.invViews) < len(c.Nodes) {
		c.invViews = make([]invariant.NodeView, len(c.Nodes))
	}
	views := c.invViews[:len(c.Nodes)]
	for i := range c.Nodes {
		v := invariant.NodeView{ID: NodeID(i), EffCapW: float64(c.caps[i])}
		if c.leases != nil {
			if lt := &c.leases[i]; lt.Active() {
				l := lt.Lease()
				v.LeaseCapW = float64(l.CapW)
				v.FloorW = float64(l.FloorW)
				v.Degraded = lt.Degraded()
				v.ExpiresAtS = l.ExpiresAtS
			}
		}
		views[i] = v
	}
	c.Invariants.CheckSecond(t, views)
}
