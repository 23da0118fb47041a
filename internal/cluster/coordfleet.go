package cluster

import (
	"fmt"
	"math/rand"

	"sturgeon/internal/control"
	"sturgeon/internal/coordinator"
	"sturgeon/internal/durable"
	"sturgeon/internal/faults"
	"sturgeon/internal/hw"
	"sturgeon/internal/power"
	"sturgeon/internal/workload"
)

// CoordFleetOptions pins the coordinated diurnal fleet scenario: the
// workload where fleet-level cap arbitration beats a static even split.
// A rotating skewed dispatch (phase-shifted across the ring) rides on a
// diurnal swell, so at any moment some nodes are power-starved — their
// governor pinned against the cap with best-effort throttled — while
// others strand watts their workload cannot spend. The coordinator moves
// the stranded watts to the starved nodes; because the simulator's power
// curve is convex in frequency, a watt buys more best-effort progress on
// a throttled node than it bought on a saturated one, so the fleet gains
// both throughput and QoS at the same total budget. The repository
// benchmark, experiments and the test batteries all build the scenario
// through here, so they compare and pin exactly the same physics.
type CoordFleetOptions struct {
	// Nodes is the fleet size; EvenCapW the per-node static cap the
	// budget is carved from (BudgetW = Nodes × EvenCapW).
	Nodes    int
	EvenCapW float64
	// MinCapW and MaxCapW clamp coordinated grants.
	MinCapW, MaxCapW float64
	// EpochS is the reporting period in simulated seconds.
	EpochS int
	// SkewAmp and PeriodS shape the rotating skew; LoadLo and LoadHi the
	// diurnal swell (fractions of fleet peak QPS); DurationS the horizon.
	SkewAmp   float64
	PeriodS   float64
	LoadLo    float64
	LoadHi    float64
	DurationS int
	// Seed drives node physics (and the chaos schedule, when enabled).
	Seed int64
	// Coordinated arbitrates caps through an in-process coordinator;
	// false runs the even-split baseline (same fleet, static caps).
	Coordinated bool
	// Chaos wraps the transport in the pinned control-plane chaos
	// schedule (chaosWindows): dropped reports and whole-fleet report
	// outages.
	Chaos bool
	// CrashRestart kills the coordinator for a six-epoch window centered
	// mid-run and restarts it from its durable state: the coordinator
	// runs behind write-ahead persistence (durable.MemStore — the
	// byte-faithful in-memory twin of the daemon's state dir), the kill
	// destroys the in-memory arbiter, and coordinator.Recover stands the
	// replacement up from snapshot + record log. Requires Coordinated.
	CrashRestart bool
	// Leased turns every grant into a fenced lease with a two-epoch TTL
	// (coordinator.Options.LeaseEpochs): missed renewals ratchet the
	// node toward its even-split floor while the coordinator reclaims
	// the expired watts for re-arbitration. Requires Coordinated.
	Leased bool
	// Partition wraps the transport in the pinned coordpartition8
	// schedule (PartitionWindows): one node fully partitioned across
	// its load decline, one node losing only the grant direction. With
	// Leased=false this is the stale-cap-cliff baseline the
	// leased-beats-cliff win gate compares against.
	Partition bool
	// Net, when non-nil, wraps the transport in this network-fault plan
	// instead of the pinned windows — the chaos battery's randomized
	// schedules. Mutually exclusive with Chaos and Partition.
	Net *faults.NetPlan
}

// DefaultCoordFleet is the pinned comparison point: 8 nodes at a 98 W
// even cap — between the fleet's idle floor (~80 W/node) and its
// saturated draw (~105 W/node), so caps genuinely bind — under a
// 0.28–0.52 diurnal swell with a ±70 % skew rotating once over the
// 480 s horizon.
func DefaultCoordFleet(seed int64) CoordFleetOptions {
	return CoordFleetOptions{
		Nodes:    8,
		EvenCapW: 98,
		MinCapW:  80,
		MaxCapW:  112,
		EpochS:   5,
		SkewAmp:  0.7, PeriodS: 480,
		LoadLo: 0.28, LoadHi: 0.52,
		DurationS: 480,
		Seed:      seed,
	}
}

// Trace returns the scenario's diurnal load trace.
func (o CoordFleetOptions) Trace() workload.Trace {
	return workload.Diurnal(o.LoadLo, o.LoadHi, float64(o.DurationS))
}

// PartitionWindows is the pinned coordpartition8 schedule, scaled to
// the run's epoch count. Node 7 loses both directions right after its
// skew peak (t≈180 of 480) and stays dark across its load decline: its
// high-water cap — granted while it was the fleet's hungriest node —
// would otherwise stay stranded on a node that no longer needs the
// watts, exactly when the nodes peaking next (5, then 4) are pinned
// with their best-effort at the frequency floor, where a reclaimed
// watt buys the most work. Node 5 loses only the grant direction late
// in the run: its reports keep renewing the server-side lease while
// the node itself, hearing nothing, degrades to its floor — the
// asymmetric case the budget invariant's in-flight slack term exists
// for.
func PartitionWindows(epochs, nodes int) []faults.NetWindow {
	e := func(f float64) int { return int(f * float64(epochs)) }
	ws := []faults.NetWindow{
		{Node: 7, Dir: faults.DirReport, Start: e(0.42), End: e(0.75)},
		{Node: 7, Dir: faults.DirGrant, Start: e(0.42), End: e(0.75)},
		{Node: 5, Dir: faults.DirGrant, Start: e(0.73), End: e(0.81)},
	}
	out := ws[:0]
	for _, w := range ws {
		if w.Node < nodes {
			out = append(out, w)
		}
	}
	return out
}

// The pinned control-plane chaos profile: a 10 % per-(node, epoch)
// report loss rate and two 3-epoch whole-fleet report outages.
const (
	chaosDropRate     = 0.1
	chaosOutages      = 2
	chaosOutageEpochs = 3
)

// chaosWindows is the pinned control-plane chaos schedule, drawn from
// seed: each node's report is lost with probability chaosDropRate in
// each epoch (a one-epoch report-direction window), and chaosOutages
// whole-fleet outages of chaosOutageEpochs epochs each sever every
// node's report direction. During an outage the coordinator hears
// nothing; its stale and lease clocks move only when reports resume.
func chaosWindows(seed int64, epochs, nodes int) []faults.NetWindow {
	rng := rand.New(rand.NewSource(seed))
	var ws []faults.NetWindow
	for e := 1; e <= epochs; e++ {
		for n := 0; n < nodes; n++ {
			if rng.Float64() < chaosDropRate {
				ws = append(ws, faults.NetWindow{Node: n, Dir: faults.DirReport, Start: e, End: e + 1})
			}
		}
	}
	for i := 0; i < chaosOutages && epochs > 1; i++ {
		start := 1 + rng.Intn(epochs)
		for n := 0; n < nodes; n++ {
			ws = append(ws, faults.NetWindow{Node: n, Dir: faults.DirReport,
				Start: start, End: start + chaosOutageEpochs})
		}
	}
	return ws
}

// BuildCoordFleet materializes the scenario: a memcached+raytrace fleet
// of governor-managed nodes on the skewed dispatch, optionally wired to
// an in-process coordinator behind its network-fault schedule, if any.
// Run it with c.Run(o.Trace(), o.DurationS).
func BuildCoordFleet(o CoordFleetOptions) (*Cluster, error) {
	if o.Nodes <= 0 || o.EvenCapW <= 0 || o.DurationS <= 0 || o.EpochS <= 0 {
		return nil, fmt.Errorf("cluster: coord fleet needs positive nodes, cap, duration and epoch")
	}
	if o.Net != nil && (o.Chaos || o.Partition) {
		return nil, fmt.Errorf("cluster: coord fleet Net excludes Chaos and Partition")
	}
	ls, be := workload.Memcached(), workload.Raytrace()
	c, err := New(o.Nodes, ls, be, power.Watts(o.EvenCapW),
		&Skewed{Amp: o.SkewAmp, PeriodS: o.PeriodS}, o.Seed,
		func(int) control.Controller {
			return control.NewGovernor(hw.DefaultSpec(), power.Watts(o.EvenCapW))
		})
	if err != nil {
		return nil, err
	}
	// Boot configuration: an LS-heavy split at the BE frequency floor, so
	// every node starts under its cap and the governors climb instead of
	// shedding.
	split := hw.Config{
		LS: hw.Alloc{Cores: 12, Freq: 2.0, LLCWays: 12},
		BE: hw.Alloc{Cores: 8, Freq: 1.2, LLCWays: 8},
	}
	for _, n := range c.Nodes {
		if err := n.Apply(split); err != nil {
			return nil, err
		}
	}
	if !o.Coordinated {
		return c, nil
	}
	copt := coordinator.Options{
		BudgetW:   o.EvenCapW * float64(o.Nodes),
		MinCapW:   o.MinCapW,
		MaxCapW:   o.MaxCapW,
		FleetSize: o.Nodes,
	}
	if o.Leased {
		copt.LeaseEpochs = 2
	}
	co, err := coordinator.New(copt)
	if err != nil {
		return nil, err
	}
	cd := &Coordination{Transport: &coordinator.Local{C: co}, EpochS: o.EpochS}
	epochs := o.DurationS / o.EpochS
	if o.CrashRestart {
		// Snapshot cadence of ~3 fleet rounds: the kill lands between
		// snapshots, so recovery exercises snapshot + log replay, not just
		// a fresh snapshot.
		store := durable.NewMemStore()
		snapEvery := 3 * o.Nodes
		cd.Transport = &coordinator.DurableLocal{C: co,
			P: &coordinator.Persist{Store: store, SnapshotEvery: snapEvery}}
		mid := epochs / 2
		cd.Kill = faults.ManualCoordKill(epochs,
			faults.CoordKillWindow{Start: mid, End: mid + 6})
		cd.Restart = func() (coordinator.Transport, coordinator.RecoveryInfo, error) {
			rc, info, err := coordinator.Recover(store, copt, nil)
			if err != nil {
				return nil, info, err
			}
			return &coordinator.DurableLocal{C: rc,
				P: &coordinator.Persist{Store: store, SnapshotEvery: snapEvery}}, info, nil
		}
	}
	plan := o.Net
	var ws []faults.NetWindow
	if o.Chaos {
		ws = chaosWindows(o.Seed+1, epochs, o.Nodes)
	}
	if o.Partition {
		ws = append(ws, PartitionWindows(epochs, o.Nodes)...)
	}
	if len(ws) > 0 {
		plan = faults.ManualNet(epochs, o.Nodes, ws...)
	}
	if plan != nil {
		// The chaos wrapper survives coordinator restarts: a kill replaces
		// the inner transport, not the network between the fleet and it,
		// so the recovered coordinator sits behind the same schedule and
		// the same running tallies.
		nc := &coordinator.NetChaos{Inner: cd.Transport, Plan: plan}
		cd.Transport, cd.net = nc, nc
		if prev := cd.Restart; prev != nil {
			cd.Restart = func() (coordinator.Transport, coordinator.RecoveryInfo, error) {
				tr, info, err := prev()
				if err != nil {
					return nil, info, err
				}
				nc.Inner = tr
				return nc, info, nil
			}
		}
	}
	c.Coord = cd
	return c, nil
}
