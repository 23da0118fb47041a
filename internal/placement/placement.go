// Package placement is the fleet-level placement and migration engine
// that sits above the per-node governor and the fleet coordinator.
// Sturgeon decides each node's resource split; this package decides
// *which* BE application lands next to which LS service on which node,
// and when a running BE should move.
//
// It has three parts:
//
//   - A pair Scorer that predicts, from a per-pair model (the trained
//     models in internal/models or the deterministic Physics model
//     below), the best achievable BE throughput on a node at
//     QoS-feasible allocations under that node's granted power cap.
//   - A deterministic assignment Solver (greedy seed + bounded
//     local-search swaps and relocations, seeded stable tie-breaking)
//     that turns a job×node score matrix into an initial fleet
//     placement beating random pairing.
//   - A migration Planner invoked at epoch boundaries that evicts BE
//     work off power-starved or unhealthy nodes and consolidates BEs
//     onto fewer nodes during demand troughs, kept stable by an
//     explicit per-move cost model (warm-up intervals during which the
//     migrated BE earns nothing) plus hysteresis and cooldown
//     thresholds so it never flaps.
//
// Everything here is deterministic: the only randomness is a seeded
// tie-break jitter far below any real score difference, so repeated
// runs — and runs at any stepping parallelism — produce byte-identical
// plans. See DESIGN.md §15.
package placement

import (
	"math"

	"sturgeon/internal/cache"
	"sturgeon/internal/hw"
	"sturgeon/internal/power"
	"sturgeon/internal/queueing"
	"sturgeon/internal/workload"
)

// PairModel predicts the behaviour of one LS/BE pair. The method set is
// exactly the prediction surface of *models.Predictor, so a trained
// per-pair model satisfies it verbatim, and Physics provides a
// closed-form analytic model that needs no training. Implementations must be comparable (the
// Scorer memoizes on the model identity) and safe for serial reuse.
type PairModel interface {
	// QoSOK reports whether the LS allocation meets the tail-latency
	// target at the given load.
	QoSOK(a hw.Alloc, qps float64) bool
	// Throughput predicts BE progress in units/s on the BE allocation.
	Throughput(a hw.Alloc) float64
	// PowerW predicts whole-node power for the configuration at load.
	PowerW(cfg hw.Config, qps float64) power.Watts
}

// Physics is a deterministic analytic pair model built directly from
// the workload profiles and platform physics — the same equations
// sim.Node integrates, evaluated at steady state without noise or
// interference. It exists so placement decisions can be made (and
// benchmarked, and golden-tested) without training MLPs first; trained
// predictors slot into the same Scorer through the PairModel interface.
//
// Physics is not safe for concurrent use (it reuses an internal
// queueing evaluator); the solver and planner only ever call it from
// the serial merge section, which is also what keeps plans identical
// at any stepping parallelism.
type Physics struct {
	LS    workload.Profile
	BE    workload.Profile
	Spec  hw.Spec
	Power power.Params
	Bus   cache.MemBus
	// Pct is the tracked tail percentile (default 0.95) and Margin the
	// headroom factor on the QoS target (default 0.9): the model calls
	// an allocation feasible only when the predicted tail sits inside
	// Margin × target, absorbing its own approximation error.
	Pct    float64
	Margin float64
	// Latency memoizes analytic solves; share one cache across the
	// fleet's Physics models. Nil disables memoization.
	Latency *queueing.Cache

	ev queueing.Evaluator
}

// NewPhysics builds a Physics model for the pair on the default
// platform with a private latency cache.
func NewPhysics(ls, be workload.Profile) *Physics {
	return &Physics{
		LS:      ls,
		BE:      be,
		Spec:    hw.DefaultSpec(),
		Power:   power.DefaultParams(),
		Bus:     cache.DefaultBus(),
		Pct:     0.95,
		Margin:  0.9,
		Latency: queueing.NewCache(),
	}
}

// lsSteady evaluates the LS side alone at the allocation and load,
// with the short contention fixed point the simulator uses.
func (m *Physics) lsSteady(a hw.Alloc, qps float64) workload.LSState {
	contention := 1.0
	var ls workload.LSState
	for i := 0; i < 3; i++ {
		ls = m.LS.LSRate(a, qps, contention)
		contention = m.Bus.Contention(ls.BandwidthGBs)
	}
	return ls
}

// QoSOK implements PairModel: the analytic tail latency at the
// allocation must sit within Margin × target.
func (m *Physics) QoSOK(a hw.Alloc, qps float64) bool {
	if a.Cores <= 0 {
		return qps <= 0
	}
	ls := m.lsSteady(a, qps)
	if ls.Rho >= 1 {
		return false
	}
	q := queueing.Analytic{
		Lambda:    qps,
		Servers:   a.Cores,
		SvcMean:   ls.SvcMean,
		SvcCV:     m.LS.SvcCV,
		ArrivalCV: m.LS.ArrivalCV,
		IntervalS: 1,
	}
	target := m.LS.QoSTargetS * m.Margin
	p95, _ := m.Latency.Solve(q, m.Pct, target, &m.ev)
	return !math.IsInf(p95, 1) && p95 <= target
}

// Throughput implements PairModel: BE units/s at the allocation, with
// the BE application's own bandwidth feeding the contention loop.
func (m *Physics) Throughput(a hw.Alloc) float64 {
	contention := 1.0
	var be workload.BEState
	for i := 0; i < 3; i++ {
		be = m.BE.BERate(a, contention)
		contention = m.Bus.Contention(be.BandwidthGBs)
	}
	return be.ThroughputUPS
}

// PowerW implements PairModel: whole-node draw for the co-located
// configuration at load, with the coupled contention fixed point.
func (m *Physics) PowerW(cfg hw.Config, qps float64) power.Watts {
	contention := 1.0
	var ls workload.LSState
	var be workload.BEState
	for i := 0; i < 3; i++ {
		ls = m.LS.LSRate(cfg.LS, qps, contention)
		be = m.BE.BERate(cfg.BE, contention)
		contention = m.Bus.Contention(ls.BandwidthGBs + be.BandwidthGBs)
	}
	beUtil := 0.0
	if cfg.BE.Cores > 0 {
		beUtil = 1.0
	}
	loads := []power.CoreLoad{
		{Cores: cfg.LS.Cores, Freq: cfg.LS.Freq, Util: math.Min(ls.Rho, 1), Activity: m.LS.Activity},
		{Cores: cfg.BE.Cores, Freq: cfg.BE.Freq, Util: beUtil, Activity: m.BE.Activity},
	}
	activeWays := cfg.LS.LLCWays + cfg.BE.LLCWays
	dram := m.Bus.Achieved(ls.BandwidthGBs + be.BandwidthGBs)
	return m.Power.Total(loads, activeWays, m.Spec.LLCWays, dram)
}
