package placement

import (
	"math"

	"sturgeon/internal/core"
	"sturgeon/internal/hw"
	"sturgeon/internal/power"
)

// Score is the Scorer's verdict for one (predictor, load, cap) query.
type Score struct {
	// UPS is the best predicted BE throughput over QoS-feasible,
	// cap-respecting configurations (0 when none exists but the LS side
	// alone still fits).
	UPS float64
	// Config is the configuration achieving UPS. When no BE frequency
	// fits, Config carries the cheapest QoS-feasible LS allocation with
	// an empty BE side.
	Config hw.Config
	// Feasible reports whether any QoS-feasible LS allocation fits
	// under the cap at all; an infeasible node cannot even host the LS
	// service and scores negative in the solver.
	Feasible bool
}

// Scorer answers "what is the best BE throughput this pair can earn on
// a node granted this power cap at this load?" by sweeping the DVFS
// grid over a fixed core/way split. The split mirrors what the runtime
// governor can actually actuate — the governor adjusts frequencies
// only, so the scorer holds cores and ways at the boot split and
// enumerates LS×BE frequency pairs, keeping the prediction surface
// aligned with the machine the plan runs on (see DESIGN.md §15).
//
// Queries are memoized on (predictor, load bits, cap bits), so the
// predictor's dynamic type must be comparable: the planner re-scores
// every node each epoch, but distinct (load, cap) points are few on a
// quantized trace. Not safe for concurrent use.
type Scorer struct {
	// Spec is the node geometry; LS and BE give the core/way template
	// (frequencies in the templates are ignored).
	Spec hw.Spec
	LS   hw.Alloc
	BE   hw.Alloc

	memo map[scoreKey]Score
}

type scoreKey struct {
	m    core.Predictor
	qps  uint64
	capW uint64
}

// NewScorer builds a scorer over the default LS-heavy boot split used
// by the fleet scenarios: 12 cores / 12 ways for the LS service, 8
// cores / 8 ways for the BE application.
func NewScorer(spec hw.Spec) *Scorer {
	return &Scorer{
		Spec: spec,
		LS:   hw.Alloc{Cores: 12, LLCWays: 12},
		BE:   hw.Alloc{Cores: 8, LLCWays: 8},
	}
}

// Best returns the scorer's verdict for pairing predictor m on a node with
// power cap capW at sustained load qps. The sweep is exact over the
// frequency grid: for every QoS-feasible LS frequency it takes the
// highest BE frequency whose predicted node power fits the cap, and
// returns the configuration maximizing predicted BE throughput (ties
// resolve to the lowest frequencies, making the result deterministic).
func (s *Scorer) Best(m core.Predictor, qps float64, capW power.Watts) Score {
	key := scoreKey{m: m, qps: math.Float64bits(qps), capW: math.Float64bits(float64(capW))}
	if sc, ok := s.memo[key]; ok {
		return sc
	}
	sc := s.sweep(m, qps, capW)
	if s.memo == nil {
		s.memo = make(map[scoreKey]Score)
	}
	s.memo[key] = sc
	return sc
}

func (s *Scorer) sweep(m core.Predictor, qps float64, capW power.Watts) Score {
	var out Score
	levels := s.Spec.FreqLevels()
	for _, lsF := range levels {
		lsAlloc := hw.Alloc{Cores: s.LS.Cores, Freq: lsF, LLCWays: s.LS.LLCWays}
		if !m.QoSOK(lsAlloc, qps) {
			continue
		}
		// LS alone must fit before any BE frequency is considered.
		bare := hw.Config{LS: lsAlloc}
		if m.PowerW(bare, qps) > capW {
			continue
		}
		if !out.Feasible {
			out.Feasible = true
			out.Config = bare
		}
		for _, beF := range levels {
			cfg := hw.Config{
				LS: lsAlloc,
				BE: hw.Alloc{Cores: s.BE.Cores, Freq: beF, LLCWays: s.BE.LLCWays},
			}
			if m.PowerW(cfg, qps) > capW {
				break // power is monotone in BE frequency
			}
			if ups := m.Throughput(cfg.BE); ups > out.UPS {
				out.UPS = ups
				out.Config = cfg
			}
		}
	}
	return out
}
