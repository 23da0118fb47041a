// Package core implements the paper's primary contribution: the Sturgeon
// runtime. It contains the §V-B binary-search configuration finder that
// locates the feasible configuration maximizing best-effort throughput
// under QoS and power constraints, the §VI preference-aware resource
// balancer (Algorithm 2) that absorbs predictor-invisible interference,
// and the Algorithm 1 top-level controller tying them together on a 1 s
// decision interval.
package core

import (
	"math"
	"reflect"

	"sturgeon/internal/hw"
	"sturgeon/internal/power"
)

// Predictor is the prediction surface the configuration search and the
// balancer consume: QoS feasibility of an LS allocation, BE throughput of
// an allocation, and total node power of a configuration. The production
// implementation is models.Predictor; tests and offline analyses can
// substitute a ground-truth oracle.
type Predictor interface {
	QoSOK(a hw.Alloc, qps float64) bool
	Throughput(a hw.Alloc) float64
	PowerW(cfg hw.Config, qps float64) power.Watts
}

// BatchPredictor is the optional batched fast path of a Predictor:
// ThroughputBatch scores a whole candidate frontier in one call,
// appending one value per allocation to dst. Results must equal
// point-wise Throughput bit for bit; models.Predictor implements it on
// top of mlkit's batched regressors.
type BatchPredictor interface {
	Predictor
	ThroughputBatch(allocs []hw.Alloc, dst []float64) []float64
}

// Searcher finds the feasible configuration with maximum predicted BE
// throughput (§V-B). Instead of scanning the O(N⁴) configuration space it
// exploits performance monotonicity: binary-search the just-enough LS
// resources, then sweep LS core counts upward — trading BE cores for BE
// frequency headroom — and keep the candidate the predictor scores best.
type Searcher struct {
	Spec   hw.Spec
	Pred   Predictor
	Budget power.Watts

	// HeadroomWays and HeadroomFreq grant the LS service one extra grid
	// step beyond the classifier's just-enough answer (defaults 1). The
	// feasibility boundary is where a learned classifier is least
	// reliable, and the queueing cliff behind it is steep; one step of
	// headroom keeps the operating point off the cliff. Negative values
	// disable the headroom (for ablation).
	HeadroomWays int
	HeadroomFreq int
	// PowerGuardFrac shrinks the budget used during the BE-frequency
	// search (default 0.03), mirroring the paper's conservative
	// peak-power modelling: predicted power must stay a guard band below
	// the cap so that model error cannot tip the node over it.
	PowerGuardFrac float64
	// Search memoization (BestConfig): the answer is a pure function of
	// (load, guarded budget, predictor), so repeated loads — diurnal
	// staircases revisit the same treads all day — are served from a
	// bounded map without touching the models. The predictor is part of
	// the key, so swapping in a retrained model invalidates naturally;
	// refitting a model in place must call InvalidateMemo.
	memo map[searchKey]searchVal

	// Caller-owned scratch reused across BestConfig calls (the searcher
	// is per-controller and stepped serially, like the node it serves).
	candScratch []Candidate
	beAllocs    []hw.Alloc
	beScores    []float64
}

// searchKey fingerprints one BestConfig question exactly: the load and
// guarded budget by their float bits, the predictor by identity. A
// distinct load level is a distinct bucket — exactness is what keeps the
// memoized answer bit-identical to a fresh search.
type searchKey struct {
	pred   Predictor
	qps    uint64
	budget uint64
}

type searchVal struct {
	cfg hw.Config
	ok  bool
}

// searchMemoMax bounds the memo; the map resets when full (a fleet
// scenario revisits far fewer distinct load levels).
const searchMemoMax = 4096

// InvalidateMemo drops every memoized search answer. Call it after
// refitting a model the searcher's predictor serves in place; replacing
// the Pred value itself needs no invalidation (it participates in the
// memo key).
func (s *Searcher) InvalidateMemo() {
	clear(s.memo)
}

// defaultHeadroom is the grid steps granted past just-enough unless a
// Searcher overrides it.
const defaultHeadroom = 1

// headroom resolves a headroom setting: 0 is the default, negative none.
func headroom(h int) int {
	if h == 0 {
		return defaultHeadroom
	}
	return max(h, 0)
}

// guard shrinks a power budget by the guard fraction (default 0.03).
func guard(budget power.Watts, frac float64) power.Watts {
	if frac <= 0 {
		frac = 0.03
	}
	return budget * power.Watts(1-frac)
}

func (s *Searcher) guardedBudget() power.Watts {
	return guard(s.Budget, s.PowerGuardFrac)
}

// Candidate is one just-enough configuration considered by the search.
type Candidate struct {
	Config hw.Config
	// Throughput is the predicted BE progress under Config.
	Throughput float64
}

// BestConfig returns the highest-throughput feasible configuration for
// the given load, and false when no co-location is feasible (the LS
// service then receives every resource). Answers are memoized per
// (load, guarded budget, predictor); see InvalidateMemo.
func (s *Searcher) BestConfig(qps float64) (hw.Config, bool) {
	key, memoOK := s.memoKey(qps)
	if memoOK {
		if v, hit := s.memo[key]; hit {
			return v.cfg, v.ok
		}
	}
	s.candScratch = s.CandidatesInto(qps, s.candScratch[:0])
	cands := s.candScratch
	v := searchVal{cfg: hw.SoloLS(s.Spec)}
	if len(cands) > 0 {
		best := cands[0]
		for _, c := range cands[1:] {
			if c.Throughput > best.Throughput {
				best = c
			}
		}
		v = searchVal{cfg: best.Config, ok: true}
	}
	if memoOK {
		if s.memo == nil {
			s.memo = make(map[searchKey]searchVal)
		} else if len(s.memo) >= searchMemoMax {
			clear(s.memo)
		}
		s.memo[key] = v
	}
	return v.cfg, v.ok
}

// memoKey builds the memo key; memoization is skipped for predictors
// whose dynamic type is not comparable (they cannot be map keys).
func (s *Searcher) memoKey(qps float64) (searchKey, bool) {
	if s.Pred == nil || !reflect.TypeOf(s.Pred).Comparable() {
		return searchKey{}, false
	}
	return searchKey{
		pred:   s.Pred,
		qps:    math.Float64bits(qps),
		budget: math.Float64bits(float64(s.guardedBudget())),
	}, true
}

// candidatesAt enumerates the §V-B frontier at a fixed LS core count,
// appending candidates — throughput still unscored — to dst. The
// early-stop verdict depends only on the BE frequency levels, so
// deferring the throughput scores to one batched evaluation changes
// neither the candidate set nor the cutoff.
func (s *Searcher) candidatesAt(qps float64, c1, maxLvl int, dst []Candidate) ([]Candidate, bool) {
	stop := true
	for _, ls := range s.justEnough(qps, c1) {
		f2lvl, ok := s.maxBEFreqLevel(ls, qps)
		if !ok {
			// Even the lowest BE frequency overloads the budget with
			// this LS allocation.
			continue
		}
		cfg := hw.Complement(s.Spec, ls, s.Spec.FreqAtLevel(f2lvl))
		dst = append(dst, Candidate{Config: cfg})
		if f2lvl < maxLvl {
			stop = false
		}
	}
	return dst, stop
}

// Candidates enumerates the just-enough candidates of the §V-B sweep in
// increasing LS-core order. It stops once the BE application reaches
// maximum frequency — granting the LS service further cores past that
// point can only shrink the BE allocation without any frequency gain.
func (s *Searcher) Candidates(qps float64) []Candidate {
	return s.CandidatesInto(qps, nil)
}

// CandidatesInto is Candidates appending into a caller-owned slice
// (pass dst[:0] to reuse its storage): the frontier is enumerated
// first, then every candidate's BE throughput is scored in one batched
// predictor call.
func (s *Searcher) CandidatesInto(qps float64, dst []Candidate) []Candidate {
	spec := s.Spec
	maxLvl := spec.NumFreqLevels() - 1

	// At maximum frequency with all LLC ways; keep at least one core
	// for the BE application.
	ok := func(a hw.Alloc) bool { return s.Pred.QoSOK(a, qps) }
	c1min := minCores(spec, ok, spec.Cores-1, spec.LLCWays)
	if c1min < 0 {
		return dst
	}
	out := dst
	for c1 := c1min; c1 < spec.Cores; c1++ {
		var stop bool
		out, stop = s.candidatesAt(qps, c1, maxLvl, out)
		if len(out) > 0 && stop {
			break
		}
	}
	return s.scoreFrontier(out)
}

// scoreFrontier fills in the Throughput of every enumerated candidate
// with one batched evaluation, reusing the searcher's scratch buffers.
func (s *Searcher) scoreFrontier(cands []Candidate) []Candidate {
	if len(cands) == 0 {
		return cands
	}
	s.beAllocs = s.beAllocs[:0]
	for i := range cands {
		s.beAllocs = append(s.beAllocs, cands[i].Config.BE)
	}
	if b, ok := s.Pred.(BatchPredictor); ok {
		s.beScores = b.ThroughputBatch(s.beAllocs, s.beScores[:0])
	} else {
		s.beScores = s.beScores[:0]
		for _, a := range s.beAllocs {
			s.beScores = append(s.beScores, s.Pred.Throughput(a))
		}
	}
	for i := range cands {
		cands[i].Throughput = s.beScores[i]
	}
	return cands
}

// justEnough returns up to two just-enough LS allocations at a fixed core
// count, exploring both corners of the frequency/ways trade-off frontier:
//
//   - ways-lean: minimum ways at maximum frequency, then minimum frequency
//     at those ways — leaves the most LLC to the BE application;
//   - power-lean: minimum frequency with generous ways, then minimum ways
//     at that frequency — LLC ways cost almost no power, so a slower,
//     cache-rich LS allocation frees the most power budget for BE
//     frequency.
//
// Which corner wins depends on the BE application's cache and frequency
// preferences; both become candidates and the predictor arbitrates.
func (s *Searcher) justEnough(qps float64, c1 int) []hw.Alloc {
	spec := s.Spec
	maxLvl := spec.NumFreqLevels() - 1
	ok := func(a hw.Alloc) bool { return s.Pred.QoSOK(a, qps) }
	hWays, hFreq := headroom(s.HeadroomWays), headroom(s.HeadroomFreq)
	var out []hw.Alloc

	// Ways-lean corner.
	if l1 := minWays(spec, ok, c1, maxLvl, spec.LLCWays-1); l1 >= 0 {
		l1 = min(l1+hWays, spec.LLCWays-1)
		if f1 := minFreqLevel(spec, ok, c1, l1); f1 >= 0 {
			f1 = min(f1+hFreq, maxLvl)
			out = append(out, hw.Alloc{Cores: c1, Freq: spec.FreqAtLevel(f1), LLCWays: l1})
		}
	}
	// Power-lean corner.
	if f1 := minFreqLevel(spec, ok, c1, spec.LLCWays-1); f1 >= 0 {
		f1 = min(f1+hFreq, maxLvl)
		if l1 := minWays(spec, ok, c1, f1, spec.LLCWays-1); l1 >= 0 {
			l1 = min(l1+hWays, spec.LLCWays-1)
			alt := hw.Alloc{Cores: c1, Freq: spec.FreqAtLevel(f1), LLCWays: l1}
			if len(out) == 0 || out[0] != alt {
				out = append(out, alt)
			}
		}
	}
	return out
}

// minFeasible binary-searches the least v in [lo, hi] with ok(v), ok
// being monotone as §V-B's performance monotonicity gives; -1 when even
// hi fails or the range is empty.
func minFeasible(lo, hi int, ok func(int) bool) int {
	if hi < lo || !ok(hi) {
		return -1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if ok(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi
}

// The just-enough searches of §V-B, shared by the pair and the k-app
// search: each takes one LS service's QoS predicate and the resource
// bounds still open to it.

// minCores is the minimum core count up to maxCores meeting QoS at
// maximum frequency with the given ways; -1 when none does.
func minCores(spec hw.Spec, ok func(hw.Alloc) bool, maxCores, ways int) int {
	return minFeasible(1, maxCores, func(c int) bool {
		return ok(hw.Alloc{Cores: c, Freq: spec.FreqMax, LLCWays: ways})
	})
}

// minWays is the minimum LLC ways up to maxWays meeting QoS at the given
// cores and frequency level; -1 when none does.
func minWays(spec hw.Spec, ok func(hw.Alloc) bool, cores, flvl, maxWays int) int {
	f := spec.FreqAtLevel(flvl)
	return minFeasible(1, maxWays, func(l int) bool {
		return ok(hw.Alloc{Cores: cores, Freq: f, LLCWays: l})
	})
}

// minFreqLevel is the minimum DVFS level meeting QoS at the given cores
// and ways; -1 when even the maximum level fails.
func minFreqLevel(spec hw.Spec, ok func(hw.Alloc) bool, cores, ways int) int {
	return minFeasible(0, spec.NumFreqLevels()-1, func(lvl int) bool {
		return ok(hw.Alloc{Cores: cores, Freq: spec.FreqAtLevel(lvl), LLCWays: ways})
	})
}

// maxBEFreqLevel binary-searches the highest BE DVFS level that keeps the
// predicted node power within budget for the complement of ls.
func (s *Searcher) maxBEFreqLevel(ls hw.Alloc, qps float64) (int, bool) {
	spec := s.Spec
	budget := s.guardedBudget()
	fits := func(lvl int) bool {
		cfg := hw.Complement(spec, ls, spec.FreqAtLevel(lvl))
		return s.Pred.PowerW(cfg, qps) <= budget
	}
	if !fits(0) {
		return 0, false
	}
	lo, hi := 0, spec.NumFreqLevels()-1 // invariant: fits(lo)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, true
}

// ExhaustiveBest scans the entire configuration space — the O(N⁴)
// baseline of §VII-E, kept for the overhead comparison and as a test
// oracle for the guided search.
func (s *Searcher) ExhaustiveBest(qps float64) (hw.Config, bool) {
	best := hw.SoloLS(s.Spec)
	bestT := -1.0
	hw.EnumerateConfigs(s.Spec, func(cfg hw.Config) bool {
		if !s.Pred.QoSOK(cfg.LS, qps) {
			return true
		}
		if s.Pred.PowerW(cfg, qps) > s.Budget {
			return true
		}
		if t := s.Pred.Throughput(cfg.BE); t > bestT {
			bestT = t
			best = cfg
		}
		return true
	})
	return best, bestT >= 0
}
