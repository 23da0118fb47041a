package cluster

import (
	"fmt"
	"math/rand"

	"sturgeon/internal/control"
	"sturgeon/internal/core"
	"sturgeon/internal/hw"
	"sturgeon/internal/placement"
	"sturgeon/internal/power"
	"sturgeon/internal/queueing"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

// PlacementFleetOptions pins the placement-pair scenario: the workload
// where preference-aware pairing beats random pairing at equal QoS.
// The fleet's static caps are heterogeneous — rich, mid and starved
// nodes in a fixed rotation — and the BE mix spans the preference
// spectrum: compute-bound applications whose throughput is linear in
// frequency (exactly what a starved node's governor sheds first) next
// to memory-bound ones that barely notice a lower clock. Random
// pairing strands frequency-hungry jobs on starved nodes; the
// placement solver puts them where the watts are, and the migration
// planner keeps it that way when flash crowds shift the power picture
// mid-run. Experiments and the test batteries all build the scenario
// through here.
type PlacementFleetOptions struct {
	// Nodes is the fleet size; caps rotate Rich → Starved → Mid →
	// Starved across it (see CapW).
	Nodes                          int
	RichCapW, MidCapW, StarvedCapW float64
	// EpochS is the migration-planning period in intervals; WarmupS the
	// per-move warm-up penalty (the migrated BE earns nothing that
	// long on its new node).
	EpochS  int
	WarmupS int
	// DurationS is the horizon; Burst the flash-crowd load (compiled
	// once, shared between Trace and TraceBreaks).
	DurationS int
	Burst     workload.BurstSpec
	// SkewAmp and SkewPeriodS shape the rotating dispatch skew: the
	// fleet's hot spot moves around the ring, so which nodes are
	// power-starved changes over the run — the pressure that makes the
	// migration planner earn its keep.
	SkewAmp     float64
	SkewPeriodS float64
	// Seed drives node physics, the random-pairing baseline and the
	// solver's tie-breaks.
	Seed int64
	// Placed runs the placement engine (solver seed + migration
	// planner); false runs the random-pairing baseline on the same
	// fleet with the same jobs and no planner.
	Placed bool
	// Models optionally overrides the per-job predictor (trained
	// predictors via experiments); nil scores with the node physics,
	// sim.Oracle at placementMargin.
	Models func(ls, be workload.Profile) core.Predictor
	// ForceAssign, when non-nil in the Placed arm, overrides the
	// solver's initial job→node assignment. Tests use it to hand the
	// migration planner a deliberately bad placement and watch it
	// recover.
	ForceAssign []int
}

// DefaultPlacementFleet is the pinned comparison point: 12 nodes with
// caps rotating 112/86/104/88 W, eight BE jobs (four frequency-hungry,
// four memory-bound) and a 600 s flash-crowd day — base load 30–45 %
// of peak with three heavy-tailed surges.
func DefaultPlacementFleet(seed int64) PlacementFleetOptions {
	return PlacementFleetOptions{
		Nodes:       12,
		RichCapW:    112,
		MidCapW:     104,
		StarvedCapW: 87,
		EpochS:      30,
		WarmupS:     45,
		DurationS:   600,
		Burst: workload.BurstSpec{
			BaseLo: 0.30, BaseHi: 0.45,
			PeriodS:    600,
			BaseTreadS: 60,
			Bursts:     3,
			AmpMin:     0.25, AmpMax: 0.85,
			Alpha: 1.4,
			RampS: 10, HoldS: 40, DecayS: 40,
			Seed: seed + 11,
		},
		SkewAmp:     0.35,
		SkewPeriodS: 600,
		Seed:        seed,
	}
}

// CapW returns node i's static power cap: a fixed rotation mixing rich
// and starved nodes so pairing genuinely matters.
func (o PlacementFleetOptions) CapW(i int) float64 {
	switch i % 4 {
	case 0:
		return o.RichCapW
	case 2:
		return o.MidCapW
	default:
		return o.StarvedCapW
	}
}

// Jobs returns the scenario's BE mix: compute-bound, frequency-scaling
// applications (blackscholes, swaptions) alongside memory-bound ones,
// eight jobs for a twelve-node fleet so migrations have room to land.
func (o PlacementFleetOptions) Jobs() []PlacedJob {
	bes := []workload.Profile{
		workload.Blackscholes(), workload.Swaptions(),
		workload.Blackscholes(), workload.Swaptions(),
		workload.Facesim(), workload.Fluidanimate(),
		workload.Ferret(), workload.Raytrace(),
	}
	jobs := make([]PlacedJob, len(bes))
	for j, be := range bes {
		jobs[j] = PlacedJob{ID: fmt.Sprintf("%s-%d", be.Name, j), BE: be}
	}
	return jobs
}

// Flash compiles the scenario's flash-crowd trace.
func (o PlacementFleetOptions) Flash() workload.FlashCrowd {
	return o.Burst.Build(o.DurationS)
}

// Trace returns the compiled load trace.
func (o PlacementFleetOptions) Trace() workload.Trace {
	return o.Flash().Trace()
}

// placementMargin is the headroom the physics scorer keeps on the QoS
// target: a configuration is feasible only when its tail latency sits
// within 0.9 × target, absorbing load drift between epochs.
const placementMargin = 0.9

// placementSplit is the boot configuration of every node: an LS-heavy
// split whose BE partition stays reserved even on idle nodes, so a
// migrated job can land without touching the LS side. It must match
// the scorer template in placement.NewScorer.
var placementSplit = hw.Config{
	LS: hw.Alloc{Cores: 12, Freq: 2.0, LLCWays: 12},
	BE: hw.Alloc{Cores: 8, Freq: 1.2, LLCWays: 8},
}

// BuildPlacementFleet materializes the scenario: a memcached fleet of
// quiet governor-managed nodes with heterogeneous static caps, the BE
// jobs assigned either by the placement solver (Placed) or by a seeded
// shuffle, and — in the Placed arm — the migration planner wired in.
// Run it with c.Run(o.Trace(), o.DurationS); the cluster's TraceBreaks
// are pre-set from the compiled flash-crowd trace.
func BuildPlacementFleet(o PlacementFleetOptions) (*Cluster, error) {
	jobs := o.Jobs()
	if o.Nodes < len(jobs) {
		return nil, fmt.Errorf("cluster: placement fleet needs at least %d nodes, got %d", len(jobs), o.Nodes)
	}
	if o.DurationS <= 0 || o.EpochS <= 0 {
		return nil, fmt.Errorf("cluster: placement fleet needs positive duration and epoch")
	}
	ls := workload.Memcached()
	meanCap := 0.0
	for i := 0; i < o.Nodes; i++ {
		meanCap += o.CapW(i)
	}
	meanCap /= float64(o.Nodes)
	var policy DispatchPolicy = RoundRobin{}
	if o.SkewAmp > 0 {
		policy = &Skewed{Amp: o.SkewAmp, PeriodS: o.SkewPeriodS}
	}
	c, err := New(o.Nodes, ls, jobs[0].BE, power.Watts(meanCap),
		policy, o.Seed, func(i int) control.Controller {
			return control.NewGovernor(hw.DefaultSpec(), power.Watts(o.CapW(i)))
		})
	if err != nil {
		return nil, err
	}
	for i := range c.caps {
		c.caps[i] = power.Watts(o.CapW(i))
	}

	// Pair predictors and the score matrix. QuietNode physics make the
	// run deterministic; the oracle evaluates the same interval
	// equations, so solver and simulator agree on preferences.
	scorer := placement.NewScorer(hw.DefaultSpec())
	shared := queueing.NewCache()
	pjobs := make([]placement.Job, len(jobs))
	for j := range jobs {
		var m core.Predictor = sim.NewOracle(ls, jobs[j].BE, placementMargin, shared)
		if o.Models != nil {
			m = o.Models(ls, jobs[j].BE)
		}
		pjobs[j] = placement.Job{ID: jobs[j].ID, Model: m}
	}

	var nodeOf []int
	switch {
	case o.Placed && o.ForceAssign != nil:
		nodeOf = o.ForceAssign
	case o.Placed:
		// Score at the solve-time load: the base level the trace opens
		// on, spread evenly by the round-robin dispatcher.
		qps0 := o.Trace()(1) * ls.PeakQPS
		scores := make([][]float64, len(jobs))
		for j := range jobs {
			scores[j] = make([]float64, o.Nodes)
			for i := 0; i < o.Nodes; i++ {
				v := scorer.Best(pjobs[j].Model, qps0, power.Watts(o.CapW(i)))
				if !v.Feasible {
					scores[j][i] = placement.Infeasible
					continue
				}
				scores[j][i] = v.UPS
			}
		}
		nodeOf = placement.Solve(scores, o.Seed, 4).NodeOf
	default:
		perm := rand.New(rand.NewSource(o.Seed + 7)).Perm(o.Nodes)
		nodeOf = make([]int, len(jobs))
		for j := range nodeOf {
			nodeOf[j] = perm[j]
		}
	}

	// Boot configuration: every node reserves the BE partition; hosted
	// nodes take their job's profile at the frequency floor, idle nodes
	// run the partition empty.
	hostOf := make([]int, o.Nodes)
	for i := range hostOf {
		hostOf[i] = -1
	}
	for j, i := range nodeOf {
		if i >= 0 {
			hostOf[i] = j
		}
	}
	for i, node := range c.Nodes {
		quiet := QuietNodeLike(node)
		cfg := placementSplit
		if j := hostOf[i]; j >= 0 {
			quiet.BEProfile = jobs[j].BE
		} else {
			cfg.BE = hw.Alloc{}
		}
		if err := quiet.Apply(cfg); err != nil {
			return nil, err
		}
	}

	if o.Placed {
		pl := &Placement{
			Planner: placement.NewPlanner(pjobs, scorer, placement.PlannerOptions{
				WarmupS:   o.WarmupS,
				TroughQPS: 0.32 * ls.PeakQPS,
			}),
			EpochS:  o.EpochS,
			WarmupS: o.WarmupS,
			BEAlloc: placementSplit.BE,
			Jobs:    jobs,
		}
		if err := pl.SetAssignment(nodeOf, o.Nodes); err != nil {
			return nil, err
		}
		c.Place = pl
	}
	c.TraceBreaks = o.Flash().BreakSteps(o.DurationS)
	return c, nil
}

// QuietNodeLike strips a node's noise sources in place (meter noise,
// latency noise, interference), making it deterministic — the fleet
// builders use it instead of reconstructing nodes so the shared latency
// cache and seeds wired by New survive.
func QuietNodeLike(n *sim.Node) *sim.Node {
	n.Meter = power.NewMeter(0, nil)
	n.Interf = sim.None()
	n.P95NoiseSD = 0
	return n
}
