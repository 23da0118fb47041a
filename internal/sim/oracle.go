package sim

import (
	"math"

	"sturgeon/internal/cache"
	"sturgeon/internal/hw"
	"sturgeon/internal/power"
	"sturgeon/internal/queueing"
	"sturgeon/internal/workload"
)

// Oracle is the node's steady state as ground truth: a quiet scratch
// Node — no interference, no meter or latency noise, no randomness —
// on which every query runs one interval from an empty queue. It
// answers the core.Predictor questions with the equations the
// simulator integrates, so placement scoring and the Fig. 3 motivation
// search judge configurations by the physics that runs the node, and
// Measure hands the Fig. 2/3 measurements the whole interval.
//
// Not safe for concurrent use: queries share the scratch node.
type Oracle struct {
	node   Node
	margin float64
}

// NewOracle builds the pair's evaluator on the default platform. QoSOK
// accepts a tail latency within margin × the QoS target (1 holds the
// target itself); lat memoizes the latency solves and may be shared or
// nil.
func NewOracle(ls, be workload.Profile, margin float64, lat *queueing.Cache) *Oracle {
	return &Oracle{node: Node{
		Spec: hw.DefaultSpec(), PowerParams: power.DefaultParams(), Bus: cache.DefaultBus(),
		LSProfile: ls, BEProfile: be, Meter: power.NewMeter(0, nil), Latency: lat,
	}, margin: margin}
}

// Measure applies cfg (clamping frequencies and validating like
// Node.Apply) and returns the statistics of one interval at qps that
// starts with no carried backlog.
func (o *Oracle) Measure(cfg hw.Config, qps float64) (IntervalStats, error) {
	if err := o.node.Apply(cfg); err != nil {
		return IntervalStats{}, err
	}
	o.node.ResetQueue()
	return o.node.Step(1, qps), nil
}

// QoSOK reports whether the LS allocation, with the complement granted
// to the BE application at minimum frequency, keeps the interval's tail
// latency within margin × target.
func (o *Oracle) QoSOK(a hw.Alloc, qps float64) bool {
	st, err := o.Measure(hw.Complement(o.node.Spec, a, o.node.Spec.FreqMin), qps)
	return err == nil && st.TrueP95 <= o.margin*o.node.LSProfile.QoSTargetS
}

// Throughput is the BE application's rate on the allocation running
// alone, its own bandwidth feeding the bus contention.
func (o *Oracle) Throughput(a hw.Alloc) float64 {
	var be workload.BEState
	o.node.Bus.Settle(func(c float64) float64 {
		be = o.node.BEProfile.BERate(a, c)
		return be.BandwidthGBs
	})
	return be.ThroughputUPS
}

// PowerW is the interval's true node power; +Inf for a configuration
// the platform rejects.
func (o *Oracle) PowerW(cfg hw.Config, qps float64) power.Watts {
	st, err := o.Measure(cfg, qps)
	if err != nil {
		return power.Watts(math.Inf(1))
	}
	return st.TruePower
}

// SoloBEThroughput returns the BE application's throughput running alone
// on the whole machine at maximum frequency — the normalization basis of
// Fig. 10.
func SoloBEThroughput(spec hw.Spec, bus cache.MemBus, be workload.Profile) float64 {
	return (&Oracle{node: Node{Spec: spec, Bus: bus, BEProfile: be}}).Throughput(hw.SoloBE(spec).BE)
}

// LSPeakPower returns the node's power draw with the LS service running
// alone at peak load on all resources at maximum frequency — the paper's
// power-budget definition (§III-B).
func LSPeakPower(spec hw.Spec, params power.Params, bus cache.MemBus, ls workload.Profile) power.Watts {
	return (&Oracle{node: Node{Spec: spec, PowerParams: params, Bus: bus, LSProfile: ls}}).PowerW(hw.SoloLS(spec), ls.PeakQPS)
}
