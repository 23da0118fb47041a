package core

import (
	"math"
	"slices"

	"sturgeon/internal/hw"
	"sturgeon/internal/models"
	"sturgeon/internal/power"
	"sturgeon/internal/workload"
)

// AppSearcher is the §V-B search for k co-located applications, any mix
// of LS services and BE applications: "the algorithm can be extended to
// support multiple LS/BE applications by independently searching the
// configuration for each application". LS services are satisfied first,
// in list order, by the pair's just-enough searches over the cores and
// ways still free; the rest then goes to the BE applications by marginal
// utility — one resource unit at a time to whichever application's
// predicted throughput gains most, checked against the guarded budget.
type AppSearcher struct {
	Spec hw.Spec
	Apps []workload.Profile
	// Preds holds one predictor per application, indexed like Apps: the
	// LS half (models.FitLS) for a service, the BE half (models.FitBE)
	// for a best-effort application.
	Preds []*models.Predictor
	// Budget is the node power cap; IdleW the platform idle floor used
	// to compose node power from the per-application predictions.
	Budget power.Watts
	IdleW  power.Watts
}

// indices lists the applications of one class, in list order.
func (s *AppSearcher) indices(c workload.Class) []int {
	var out []int
	for i, a := range s.Apps {
		if a.Class == c {
			out = append(out, i)
		}
	}
	return out
}

// powerW composes the node power prediction: the idle floor, plus each
// running LS service's draw above idle, plus each BE allocation's
// increment.
func (s *AppSearcher) powerW(p []hw.Alloc, qps []float64) power.Watts {
	total := s.IdleW
	for i, a := range p {
		if s.Apps[i].Class == workload.BE {
			total += s.Preds[i].BEPowerW(a)
		} else if a.Cores > 0 {
			if inc := s.Preds[i].LSPowerW(a, qpsAt(qps, i)) - s.IdleW; inc > 0 {
				total += inc
			}
		}
	}
	return total
}

// Best returns the partition the search settles on, index-aligned with
// Apps, and whether every LS service was satisfiable. An unsatisfiable
// service receives everything still free — the k-app analogue of falling
// back to SoloLS.
func (s *AppSearcher) Best(qps []float64) ([]hw.Alloc, bool) {
	spec := s.Spec
	p := make([]hw.Alloc, len(s.Apps))
	for i := range p {
		p[i].Freq = spec.FreqMin
	}
	freeCores, freeWays := spec.Cores, spec.LLCWays
	maxLvl := spec.NumFreqLevels() - 1
	allOK := true

	// Phase 1: just-enough per LS service, in list order.
	for _, i := range s.indices(workload.LS) {
		pred, q := s.Preds[i], qpsAt(qps, i)
		ok := func(a hw.Alloc) bool { return pred.QoSOK(a, q) }
		c := minCores(spec, ok, freeCores, freeWays)
		if c < 0 {
			p[i] = hw.Alloc{Cores: freeCores, Freq: spec.FreqMax, LLCWays: freeWays}
			freeCores, freeWays = 0, 0
			allOK = false
			continue
		}
		// At the minimum core count the service may compensate with a
		// large slice of the cache; sweep a few core counts and keep the
		// allocation with the smallest normalized footprint, so the
		// best-effort side inherits a balanced remainder.
		bestC, bestL, bestCost := freeCores, freeWays, math.Inf(1)
		for cc := c; cc <= min(c+6, freeCores); cc++ {
			l := minWays(spec, ok, cc, maxLvl, freeWays)
			if l < 0 {
				continue
			}
			if cost := float64(cc)/float64(spec.Cores) + float64(l)/float64(spec.LLCWays); cost < bestCost {
				bestCost, bestC, bestL = cost, cc, l
			}
		}
		l := min(bestL+defaultHeadroom, freeWays)
		f := minFreqLevel(spec, ok, bestC, l)
		if f < 0 {
			f = maxLvl
		}
		f = min(f+defaultHeadroom, maxLvl)
		p[i] = hw.Alloc{Cores: bestC, Freq: spec.FreqAtLevel(f), LLCWays: l}
		freeCores -= bestC
		freeWays -= l
	}

	// Phase 2: marginal-utility allocation across the BE applications.
	bes := s.indices(workload.BE)
	budget := guard(s.Budget, 0)
	fits := func(j int, a hw.Alloc) bool {
		old := p[j]
		p[j] = a
		ok := s.powerW(p, qps) <= budget
		p[j] = old
		return ok
	}
	for _, j := range bes {
		seed := hw.Alloc{Cores: 1, Freq: spec.FreqMin, LLCWays: 1}
		if freeCores > 0 && freeWays > 0 && fits(j, seed) {
			p[j] = seed
			freeCores--
			freeWays--
		}
	}
	for {
		bestJ, bestGain := -1, 0.0
		var bestA hw.Alloc
		for _, j := range bes {
			cur := p[j]
			if cur.Cores == 0 {
				continue
			}
			// One more core, one more way, one DVFS level up.
			var moves [3]hw.Alloc
			n := 0
			if freeCores > 0 {
				moves[n] = cur
				moves[n].Cores++
				n++
			}
			if freeWays > 0 {
				moves[n] = cur
				moves[n].LLCWays++
				n++
			}
			if lvl := spec.LevelOfFreq(cur.Freq); lvl < maxLvl {
				moves[n] = cur
				moves[n].Freq = spec.FreqAtLevel(lvl + 1)
				n++
			}
			base := s.Preds[j].Throughput(cur)
			for _, a := range moves[:n] {
				if !fits(j, a) {
					continue
				}
				if gain := s.Preds[j].Throughput(a) - base; gain > 0 && (bestJ < 0 || gain > bestGain) {
					bestJ, bestA, bestGain = j, a, gain
				}
			}
		}
		if bestJ < 0 {
			break
		}
		freeCores -= bestA.Cores - p[bestJ].Cores
		freeWays -= bestA.LLCWays - p[bestJ].LLCWays
		p[bestJ] = bestA
	}
	return p, allOK
}

// AppController is Algorithm 1 for k co-located applications. Each
// interval it checks every LS service's slack against the pair's
// [Alpha, Beta] band: a load move re-runs the k-app search, a residual
// violation is absorbed by harvesting resource units for the worst-off
// service from whichever BE application the models say loses least, and
// a measured power overload throttles the BE side.
type AppController struct {
	Search *AppSearcher
	opt    Options

	searched, harvested bool
	lastQPS             []float64
	// Searches and Harvests count the controller's actions.
	Searches, Harvests int
}

// NewAppController builds the k-app controller with the pair's default
// slack band and load-move threshold.
func NewAppController(s *AppSearcher) *AppController {
	return &AppController{Search: s, opt: Options{}.withDefaults()}
}

// Decide returns the partition to apply next, given the partition in
// force over the interval, each application's measured p95 and offered
// load (read for LS services only) and the measured node power.
func (c *AppController) Decide(part []hw.Alloc, p95, qps []float64, measured power.Watts) []hw.Alloc {
	s := c.Search
	overload := float64(measured) > 0.99*float64(s.Budget)
	ls := s.indices(workload.LS)
	worst, worstIdx := math.Inf(1), -1 // smallest slack across LS services
	for _, i := range ls {
		target := s.Apps[i].QoSTargetS
		if slack := (target - p95[i]) / target; slack < worst {
			worst, worstIdx = slack, i
		}
	}

	// Hold only inside the slack band (Alg. 1): below Alpha the QoS is
	// threatened, above Beta resources are sitting idle and should be
	// re-searched back to the best-effort side as the load recedes.
	if !overload && worst >= c.opt.Alpha && worst <= c.opt.Beta {
		c.harvested = false
		return part
	}
	// Episode over (ample slack after harvesting): drop the search memo
	// so the predictor's configuration is restored even at constant load.
	if !overload && worst > c.opt.Beta && c.harvested {
		c.harvested = false
		c.searched = false
	}

	moved := !c.searched
	for _, i := range ls {
		if math.Abs(qpsAt(qps, i)-qpsAt(c.lastQPS, i)) > c.opt.LoadDelta*s.Apps[i].PeakQPS {
			moved = true
		}
	}
	if moved {
		next, _ := s.Best(qps)
		c.searched = true
		c.lastQPS = append(c.lastQPS[:0], qps...)
		c.Searches++
		return next
	}

	if overload {
		// Throttle every running BE application one DVFS level; park a
		// core when already at the floor.
		next := slices.Clone(part)
		changed := false
		for _, j := range s.indices(workload.BE) {
			a := &next[j]
			if a.Cores == 0 {
				continue
			}
			if lvl := s.Spec.LevelOfFreq(a.Freq); lvl > 0 {
				a.Freq = s.Spec.FreqAtLevel(lvl - 1)
				changed = true
			} else if a.Cores > 1 {
				a.Cores--
				changed = true
			}
		}
		if !changed {
			return part
		}
		c.Harvests++
		return next
	}

	// Violation at steady load: interference. Harvest for the worst-off
	// service, with the number of units proportional to how deep the
	// violation is.
	if worstIdx < 0 || worst >= c.opt.Alpha {
		return part
	}
	units := 1
	if worst < 0 {
		units += min(4, int(-worst*2))
	}
	next, did := part, false
	for u := 0; u < units; u++ {
		n, ok := c.harvestFor(next, worstIdx)
		if !ok {
			break
		}
		next, did = n, true
	}
	if !did {
		return part
	}
	c.Harvests++
	c.harvested = true
	return next
}

// harvestFor moves one resource unit — a core, a way, or a DVFS level
// traded from BE to LS — to the violated LS service from the BE
// application whose predicted throughput loss is smallest.
func (c *AppController) harvestFor(p []hw.Alloc, lsIdx int) ([]hw.Alloc, bool) {
	s := c.Search
	spec := s.Spec
	var best []hw.Alloc
	bestLoss := 0.0
	consider := func(next []hw.Alloc, loss float64) {
		if hw.ValidatePartition(spec, next...) == nil && (best == nil || loss < bestLoss) {
			best, bestLoss = next, loss
		}
	}
	for _, j := range s.indices(workload.BE) {
		m, cur := s.Preds[j], p[j]
		if cur.Cores == 0 {
			continue
		}
		base := m.Throughput(cur)
		if cur.Cores > 1 {
			next := slices.Clone(p)
			next[j].Cores--
			next[lsIdx].Cores++
			consider(next, base-m.Throughput(next[j]))
		}
		if cur.LLCWays > 1 {
			next := slices.Clone(p)
			next[j].LLCWays--
			next[lsIdx].LLCWays++
			consider(next, base-m.Throughput(next[j]))
		}
		if lvl := spec.LevelOfFreq(cur.Freq); lvl > 0 {
			if lsLvl := spec.LevelOfFreq(p[lsIdx].Freq); lsLvl < spec.NumFreqLevels()-1 {
				next := slices.Clone(p)
				next[j].Freq = spec.FreqAtLevel(lvl - 1)
				next[lsIdx].Freq = spec.FreqAtLevel(lsLvl + 1)
				consider(next, base-m.Throughput(next[j]))
			}
		}
	}
	return best, best != nil
}

// qpsAt reads application i's load, zero past the end of the list.
func qpsAt(qps []float64, i int) float64 {
	if i < len(qps) {
		return qps[i]
	}
	return 0
}
