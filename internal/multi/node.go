package multi

import (
	"fmt"
	"math"
	"math/rand"

	"sturgeon/internal/cache"
	"sturgeon/internal/hw"
	"sturgeon/internal/power"
	"sturgeon/internal/queueing"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

// AppStats is one application's share of an interval.
type AppStats struct {
	// LS fields (zero for BE apps).
	QPS     float64
	TrueP95 float64
	P95     float64 // measured
	QoSFrac float64
	Rho     float64
	// BE fields (zero for LS apps).
	ThroughputUPS float64
}

// IntervalStats is one simulated interval of the multi-app node.
type IntervalStats struct {
	Time      float64
	Apps      []AppStats
	TruePower power.Watts
	Power     power.Watts
	Partition Partition
}

// Node simulates a power-constrained server hosting N co-located
// applications. The physics mirror sim.Node generalized over the
// application list: a shared memory bus couples everyone, interference
// episodes inflate every LS service's work, and per-service backlogs
// carry across intervals.
type Node struct {
	Spec        hw.Spec
	PowerParams power.Params
	Bus         cache.MemBus
	Apps        Apps
	Meter       *power.Meter
	Interf      *sim.Interference
	P95NoiseSD  float64

	rng      *rand.Rand
	cur      Partition
	backlogs []float64
}

// NewNode builds a multi-app node with default physics. The initial
// partition parks everything; call Apply before stepping.
func NewNode(apps Apps, seed int64) *Node {
	rng := rand.New(rand.NewSource(seed))
	n := &Node{
		Spec:        hw.DefaultSpec(),
		PowerParams: power.DefaultParams(),
		Bus:         cache.DefaultBus(),
		Apps:        apps,
		Meter:       power.NewMeter(0.8, rng.NormFloat64),
		Interf:      sim.DefaultInterference(rng),
		P95NoiseSD:  0.04,
		rng:         rng,
		cur:         make(Partition, len(apps)),
		backlogs:    make([]float64, len(apps)),
	}
	for i := range n.cur {
		n.cur[i].Freq = n.Spec.FreqMin
	}
	return n
}

// Apply installs a partition.
func (n *Node) Apply(p Partition) error {
	if len(p) != len(n.Apps) {
		return fmt.Errorf("multi: partition has %d allocations for %d apps", len(p), len(n.Apps))
	}
	q := p.Clone()
	for i := range q {
		q[i].Freq = n.Spec.ClampFreq(q[i].Freq)
	}
	if err := q.Validate(n.Spec); err != nil {
		return err
	}
	n.cur = q
	return nil
}

// Partition returns the partition in force.
func (n *Node) Partition() Partition { return n.cur.Clone() }

// Step advances one 1 s interval. qps carries the offered load per
// application (entries for BE applications are ignored).
func (n *Node) Step(t float64, qps []float64) IntervalStats {
	svcFactor, extraBW, _ := 1.0, 0.0, false
	if n.Interf != nil {
		svcFactor, extraBW, _ = n.Interf.Step()
	}

	// Fixed point over the shared memory bus.
	contention := 1.0
	lsStates := make([]workload.LSState, len(n.Apps))
	beStates := make([]workload.BEState, len(n.Apps))
	for iter := 0; iter < 3; iter++ {
		demand := extraBW
		for i, app := range n.Apps {
			if app.Class == workload.LS {
				lsStates[i] = app.LSRate(n.cur[i], qpsAt(qps, i), contention)
				demand += lsStates[i].BandwidthGBs
			} else {
				beStates[i] = app.BERate(n.cur[i], contention)
				demand += beStates[i].BandwidthGBs
			}
		}
		contention = n.Bus.Contention(demand)
	}

	stats := IntervalStats{Time: t, Apps: make([]AppStats, len(n.Apps)), Partition: n.cur.Clone()}
	loads := make([]power.CoreLoad, 0, len(n.Apps))
	dram := extraBW
	activeWays := 0

	for i, app := range n.Apps {
		a := n.cur[i]
		activeWays += a.LLCWays
		if app.Class == workload.BE {
			st := beStates[i]
			stats.Apps[i] = AppStats{ThroughputUPS: st.ThroughputUPS}
			util := 0.0
			if a.Cores > 0 {
				util = 1
			}
			loads = append(loads, power.CoreLoad{Cores: a.Cores, Freq: a.Freq, Util: util, Activity: app.Activity})
			dram += st.BandwidthGBs
			continue
		}

		ls := lsStates[i]
		powerUtil := math.Min(ls.Rho, 1)
		svc := ls.SvcMean * svcFactor
		rho := ls.Rho * svcFactor
		q := qpsAt(qps, i)
		backlogWait := n.stepBacklog(i, q, svc, a.Cores)
		aq := queueing.Analytic{
			Lambda: q, Servers: a.Cores,
			SvcMean: svc, SvcCV: app.SvcCV, ArrivalCV: app.ArrivalCV,
			IntervalS: 1,
		}
		trueP95 := aq.SojournQuantile(0.95) + backlogWait
		qosFrac := 0.0
		if budget := app.QoSTargetS - backlogWait; budget > 0 {
			qosFrac = aq.FractionWithin(budget)
		}
		if q <= 0 && n.backlogs[i] <= 0 {
			trueP95, qosFrac = 0, 1
		}
		meas := trueP95
		if n.P95NoiseSD > 0 && trueP95 > 0 && !math.IsInf(trueP95, 1) {
			sd := n.P95NoiseSD
			if rho > 0.75 {
				sd += 0.10 * math.Min((rho-0.75)/0.25, 2)
			}
			meas = trueP95 * math.Exp(n.rng.NormFloat64()*sd)
		}
		stats.Apps[i] = AppStats{
			QPS: q, TrueP95: trueP95, P95: meas, QoSFrac: qosFrac, Rho: rho,
		}
		loads = append(loads, power.CoreLoad{Cores: a.Cores, Freq: a.Freq, Util: powerUtil, Activity: app.Activity})
		dram += ls.BandwidthGBs
	}

	stats.TruePower = n.PowerParams.Total(loads, activeWays, n.Spec.LLCWays, n.Bus.Achieved(dram))
	stats.Power = stats.TruePower
	if n.Meter != nil {
		stats.Power = n.Meter.Read(stats.TruePower, 1)
	}
	return stats
}

func (n *Node) stepBacklog(i int, qps, svc float64, cores int) float64 {
	if cores <= 0 || svc <= 0 {
		n.backlogs[i] += qps
		return math.Inf(1)
	}
	capacity := float64(cores) / svc
	start := n.backlogs[i]
	net := qps - capacity
	var avg float64
	end := start + net
	switch {
	case end >= 0 && start >= 0:
		avg = start + net/2
	case start > 0 && end < 0:
		t0 := start / (capacity - qps)
		avg = (start / 2) * t0
		end = 0
	default:
		avg, end = 0, 0
	}
	if end < 0 {
		end = 0
	}
	if limit := 0.5 * capacity; end > limit {
		end = limit
	}
	n.backlogs[i] = end
	if avg < 0 {
		avg = 0
	}
	return avg / capacity
}

func qpsAt(qps []float64, i int) float64 {
	if i < len(qps) {
		return qps[i]
	}
	return 0
}
