package placement

import (
	"sort"

	"sturgeon/internal/core"
	"sturgeon/internal/power"
)

// Job is one BE application managed by the planner, with the pair
// predictor modelling its behaviour next to the fleet's LS service.
type Job struct {
	ID    string
	Model core.Predictor
}

// NodeSnap is the planner's per-node view at an epoch boundary,
// assembled by the cluster from the last merged interval.
type NodeSnap struct {
	// QPS is the LS load the node served in the last interval.
	QPS float64
	// CapW is the node's current power cap (coordinator grant or static
	// budget) and PowerW its measured draw.
	CapW   power.Watts
	PowerW power.Watts
	// Healthy is false for crashed or evicted nodes.
	Healthy bool
	// Job is the index of the BE job hosted here, -1 when idle.
	Job int
	// Warm counts remaining warm-up seconds from a previous migration;
	// a warming node neither earns nor gives up its job.
	Warm int
}

// Move is one planned migration.
type Move struct {
	Job  int
	From int
	To   int
	// Reason is "starved" (evicted off a power-starved or unhealthy
	// node) or "consolidate" (packed onto a better node in a trough).
	Reason string
	// GainUPS is the predicted steady-state throughput gain.
	GainUPS float64
}

// Reasons emitted by the planner.
const (
	ReasonStarved     = "starved"
	ReasonConsolidate = "consolidate"
)

// PlannerOptions tune migration aggressiveness and stability.
type PlannerOptions struct {
	// StarveFrac: a node drawing at least this fraction of its cap is
	// power-starved — its governor is shedding BE frequency and the job
	// would earn more elsewhere. Default 0.95.
	StarveFrac float64
	// TroughQPS: when the fleet-mean per-node load drops to or below
	// this, the planner may also consolidate jobs onto strictly better
	// nodes even without starvation. 0 disables consolidation.
	TroughQPS float64
	// Hysteresis: a destination must beat the current node's predicted
	// throughput by this fraction before a move is considered. Default
	// 0.10.
	Hysteresis float64
	// WarmupS is the per-move cost: seconds after arrival during which
	// the migrated BE earns nothing. AmortizeS is the horizon over
	// which the gain must repay that cost: a move needs
	// gain × AmortizeS > current × WarmupS. Defaults 30 and 300.
	WarmupS   int
	AmortizeS int
	// CooldownEpochs: a job that just moved may not move again for this
	// many epochs. Default 3.
	CooldownEpochs int
	// MaxMovesPerEpoch bounds churn. Default 2.
	MaxMovesPerEpoch int
}

// withDefaults fills zero fields.
func (o PlannerOptions) withDefaults() PlannerOptions {
	if o.StarveFrac == 0 {
		o.StarveFrac = 0.95
	}
	if o.Hysteresis == 0 {
		o.Hysteresis = 0.10
	}
	if o.WarmupS == 0 {
		o.WarmupS = 30
	}
	if o.AmortizeS == 0 {
		o.AmortizeS = 300
	}
	if o.CooldownEpochs == 0 {
		o.CooldownEpochs = 3
	}
	if o.MaxMovesPerEpoch == 0 {
		o.MaxMovesPerEpoch = 2
	}
	return o
}

// Planner plans migrations at epoch boundaries. It is deterministic:
// Plan is a pure function of (epoch, snaps) and the planner's own move
// history, and it is only ever called from the cluster's serial merge
// section.
type Planner struct {
	Jobs   []Job
	Scorer *Scorer
	Opt    PlannerOptions

	lastMove []int
}

// NewPlanner builds a planner for the jobs over the scorer.
func NewPlanner(jobs []Job, sc *Scorer, opt PlannerOptions) *Planner {
	p := &Planner{Jobs: jobs, Scorer: sc, Opt: opt.withDefaults()}
	p.lastMove = make([]int, len(jobs))
	for j := range p.lastMove {
		p.lastMove[j] = -1 << 30
	}
	return p
}

// Plan returns the migrations to apply at this epoch, at most
// MaxMovesPerEpoch, each conserving jobs by construction: a move's
// source hosts exactly the moved job and its destination is a distinct
// idle healthy node no other move targets.
func (p *Planner) Plan(epoch int, snaps []NodeSnap) []Move {
	opt := p.Opt
	var freeNodes []int
	trough := false
	if opt.TroughQPS > 0 {
		total, active := 0.0, 0
		for _, s := range snaps {
			if s.Healthy {
				total += s.QPS
				active++
			}
		}
		trough = active > 0 && total/float64(active) <= opt.TroughQPS
	}
	for i, s := range snaps {
		if s.Healthy && s.Job < 0 && s.Warm == 0 {
			freeNodes = append(freeNodes, i)
		}
	}
	if len(freeNodes) == 0 {
		return nil
	}

	var cands []Move
	for i, s := range snaps {
		j := s.Job
		if j < 0 || j >= len(p.Jobs) || s.Warm > 0 {
			continue
		}
		starved := !s.Healthy || s.PowerW >= power.Watts(opt.StarveFrac)*s.CapW
		if !starved && !trough {
			continue
		}
		if epoch-p.lastMove[j] <= opt.CooldownEpochs {
			continue
		}
		cur := 0.0
		if s.Healthy {
			cur = p.Scorer.Best(p.Jobs[j].Model, s.QPS, s.CapW).UPS
		}
		bestTo, bestUPS := -1, 0.0
		for _, f := range freeNodes {
			ups := p.Scorer.Best(p.Jobs[j].Model, snaps[f].QPS, snaps[f].CapW).UPS
			if ups > bestUPS {
				bestTo, bestUPS = f, ups
			}
		}
		if bestTo < 0 {
			continue
		}
		gain := bestUPS - cur
		if s.Healthy {
			// Hysteresis: the destination must clearly beat staying put,
			// and the gain must repay the warm-up cost over the
			// amortization horizon.
			if bestUPS <= cur*(1+opt.Hysteresis) {
				continue
			}
			if gain*float64(opt.AmortizeS) <= cur*float64(opt.WarmupS) {
				continue
			}
		} else if bestUPS <= 0 {
			continue
		}
		reason := ReasonConsolidate
		if starved {
			reason = ReasonStarved
		}
		cands = append(cands, Move{Job: j, From: i, To: bestTo, Reason: reason, GainUPS: gain})
	}
	if len(cands) == 0 {
		return nil
	}

	// Largest gains first; job index breaks exact ties.
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].GainUPS != cands[b].GainUPS {
			return cands[a].GainUPS > cands[b].GainUPS
		}
		return cands[a].Job < cands[b].Job
	})
	var out []Move
	usedTo := make(map[int]bool)
	for _, m := range cands {
		if len(out) >= opt.MaxMovesPerEpoch {
			break
		}
		if usedTo[m.To] {
			// Its best destination was claimed by a larger gain; wait for
			// the next epoch rather than settling for a worse node.
			continue
		}
		usedTo[m.To] = true
		p.lastMove[m.Job] = epoch
		out = append(out, m)
	}
	return out
}
