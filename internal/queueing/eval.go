package queueing

import (
	"math"
	"sync"
)

// This file is the hot path of the analytic engine. A node step asks two
// questions of the same queue — SojournQuantile(pct) and
// FractionWithin(budget) — and the quantile alone costs ~50 CDF
// evaluations (bracket doubling plus 48 bisection steps), each of which
// the naive implementation pays twice per quadrature bin: one exp for the
// service quantile s_i and one for the wait-tail factor e^{-θ(t-s_i)}.
// The Evaluator hoists everything that does not depend on t — Erlang-C,
// the tail rate θ, the lognormal parameters and the whole s_i table — and
// answers the bisection's comparisons with rigorous cheap bounds, falling
// back to the exact summation only when a comparison is genuinely close.
//
// Bit-exactness contract: every value the Evaluator returns is
// bit-identical to what the original Analytic methods computed. Hoisting
// is safe because the hoisted expressions are unchanged (same operations,
// same order). The comparison bounds are safe because a bisection step
// needs only the comparison *outcome* SojournCDF(t) < p, not the CDF's
// bits, and each bound provably lies on its side of the value the exact
// path would compute. The error model behind that assumes 0 < θ < ∞ and
// 0 ≤ pw < ∞ (Evaluator.tame); with u = 2⁻⁵³ the unit roundoff, x = θt
// and γ_k = ku/(1−ku):
//
//   - math.Exp is within E·u relative of the true exponential on normal
//     results, E = expErrU. The portable stdlib code claims < 1 ulp (2u);
//     the amd64 assembly measures up to ~2.7u, so E = 8 keeps a 3× margin,
//     and TestExpWithinErrorModel pins it on the host.
//   - An exact-path term exp(fl(−θ·fl(t−s_i))) rounds its argument twice,
//     so it is within (2θ(t−s_i)+E)·u ≤ (2x+E)·u of e^{−θ(t−s_i)}. A
//     clamped term (s_i > t) is exactly e^{−0} = 1.
//   - The factored e^{−θt}·prefixE[m] carries (x+E)·u from e^{−θt},
//     (θs_{m−1}+E)·u ≤ (x+E)·u from the prefix terms, γ_{m−1} from the
//     prefix summation and u from the product.
//   - The exact loop's sum of `full` non-negative terms adds γ_{full−1}.
//
// Adding these, plus 3u for forming (base+clamped)·(1±π) and u for every
// second-order term (< 1e-25 while x ≤ 668), gives the relative pad on
// the quadrature sum
//
//	π = (4x + m + full + 3E + 4)·u,
//
// at most 3.3e-13 under the e^{−θt} ≥ 1e-290 guard (x ≤ 668). The
// fractional-bin bracket needs (4x + 2E + 5)·u, which π covers. Every
// operation after the sum — the division by n, the fractional-bin
// addition, the pw product and the subtraction from F_S(t) — is a
// correctly rounded IEEE operation and therefore monotone, so the bound
// path applies the exact path's own expressions to the bounded sum and
// needs no further pad. All terms of both sums are ≥ e^{−θt}, hence
// normal; only the fractional-bin term can be subnormal, and boundTiny
// absorbs its absolute rounding.

// expZero is a conservative threshold below which math.Exp returns a
// value so small (< 2^-1075, half the smallest subnormal) that adding it
// to any quadrature sum cannot change the final CDF bits: either the
// term is exactly zero, or it is absorbed by rounding in the summation
// and the subsequent ft − pw·integral subtraction (ulp(ft) ≥ ~1e-18
// whenever the loop runs at all). Skipping such terms is therefore
// bit-identical to summing them.
const expZero = -746.0

// Error-model constants; see the file comment.
const (
	unitRoundoff = 0x1p-53
	expErrU      = 8
	boundTiny    = 1e-300
)

// Evaluator answers repeated sojourn-CDF queries against one fixed
// Analytic queue without recomputing the t-independent parts. The zero
// value is not ready; call Init (or let Cache.Solve do it).
type Evaluator struct {
	a      Analytic
	stable bool
	pw     float64 // Erlang-C wait probability
	theta  float64 // exponential wait-tail rate
	svc    LogNormal

	// sTab[i] is the service quantile at bin midpoint i, exactly
	// math.Exp(svc.Mu + svc.Sigma*quadZ[i]) — the same expression the
	// original CDF loop evaluated per call.
	sTab [quadPoints]float64

	// prefixE[k] = Σ_{i<k} e^{θ·s_i}. Because θ is fixed for the
	// evaluator's lifetime, e^{-θ(t-s_i)} factors as e^{-θt}·e^{θ·s_i},
	// so the whole quadrature sum for any t is approximated by one exp
	// and a prefix-sum lookup. The factorization is NOT bit-identical to
	// the direct sum (the large arguments θt and θ·s_i round differently
	// than the small argument θ(t-s_i)), so it is used only inside
	// rigorously padded bounds — never for a returned value.
	prefixE [quadPoints + 1]float64
	// tame holds when pw is finite and non-negative and θ finite and
	// positive, so every quadrature term lies in [0, 1] and pw·integral is
	// finite and non-negative: the premise of cdfLess's shortcut and of
	// the error model. Only nonsensical parameters (negative rates, NaN
	// CVs) break it.
	tame bool
	// fastOK gates the bound path: tame, a finite prefix table and an
	// ascending s table.
	fastOK bool

	// fallbacks counts the comparisons cdfLess had to settle with the
	// exact summation. Init leaves it alone, so it accumulates over the
	// evaluator's lifetime.
	fallbacks int
}

// Init prepares the evaluator for the given queue parameters. It may be
// called repeatedly to reuse the (large) struct across steps.
func (ev *Evaluator) Init(a Analytic) {
	ev.a = a
	ev.stable = a.Stable()
	if !ev.stable {
		return
	}
	ev.pw = a.ErlangC()
	ev.theta = a.waitTailRate()
	ev.svc = NewLogNormal(a.SvcMean, a.SvcCV)
	for i := range ev.sTab {
		ev.sTab[i] = math.Exp(ev.svc.Mu + ev.svc.Sigma*quadZ[i])
	}
	inf := math.Inf(1)
	ev.tame = 0 <= ev.pw && ev.pw < inf && 0 < ev.theta && ev.theta < inf
	ev.fastOK = ev.tame
	ev.prefixE[0] = 0
	for i, s := range ev.sTab {
		e := math.Exp(ev.theta * s)
		ev.prefixE[i+1] = ev.prefixE[i] + e
		if i > 0 && ev.sTab[i] < ev.sTab[i-1] {
			ev.fastOK = false
		}
	}
	if last := ev.prefixE[quadPoints]; math.IsInf(last, 0) || math.IsNaN(last) {
		ev.fastOK = false
	}
}

// SojournCDF returns P(T ≤ t), bit-identical to Analytic.SojournCDF.
func (ev *Evaluator) SojournCDF(t float64) float64 {
	a := ev.a
	if t <= 0 || a.Servers <= 0 {
		return 0
	}
	if !ev.stable {
		return a.saturatedFractionWithin(t)
	}
	ft := ev.svc.CDF(t)
	if ft <= 0 {
		return 0
	}
	return ev.sojournCDFStable(t, ft, -1)
}

// sojournCDFStable finishes the stable-queue CDF for already-computed
// ft = F_S(t). fracPart ≥ 0 is the fractional bin's frac·e^{-θ(t-s_u)}
// if the caller already evaluated it (bit-identical expression); pass a
// negative value to compute it here.
func (ev *Evaluator) sojournCDFStable(t, ft, fracPart float64) float64 {
	theta := ev.theta
	const n = quadPoints
	sum := 0.0
	full := int(ft * n)
	if full > n {
		full = n
	}
	for i := 0; i < full; i++ {
		s := ev.sTab[i]
		if s > t {
			s = t
		}
		if arg := -theta * (t - s); arg > expZero {
			sum += math.Exp(arg)
		}
	}
	integral := sum / n
	if frac := ft - float64(full)/n; frac > 0 && full < n {
		if fracPart < 0 {
			u := (float64(full)/n + ft) / 2
			s := ev.svc.Quantile(u)
			if s > t {
				s = t
			}
			fracPart = frac * math.Exp(-theta*(t-s))
		}
		integral += fracPart
	}
	v := ft - ev.pw*integral
	if v < 0 {
		return 0
	}
	return v
}

// FractionWithin returns SojournCDF(t), mirroring Analytic.FractionWithin.
func (ev *Evaluator) FractionWithin(t float64) float64 { return ev.SojournCDF(t) }

// sumPad returns the relative pad π of the file comment's error model for
// x = θt, m unclamped bins and full whole bins.
func sumPad(x float64, m, full int) float64 {
	return (4*x + float64(m+full) + 3*expErrU + 4) * unitRoundoff
}

// cdfLess reports whether SojournCDF(t) < p with the exact same outcome
// the full evaluation would produce. The bisection driving
// SojournQuantile needs only comparison outcomes, so most calls are
// answered by rigorous two-sided bounds costing O(log n): one exp for
// e^{-θt}, a prefix-sum lookup for the quadrature mass, and (when the
// verdict is close) one exact fractional-bin term. Only a comparison the
// bounds cannot decide falls back to the exact summation.
func (ev *Evaluator) cdfLess(t, p float64) bool {
	a := ev.a
	if t <= 0 || a.Servers <= 0 {
		return 0 < p
	}
	if !ev.stable {
		return a.saturatedFractionWithin(t) < p
	}
	if p <= 0 {
		// The CDF (clamped at zero) can never be below a non-positive p.
		return false
	}
	theta, svc := ev.theta, ev.svc
	ft := svc.CDF(t)
	if ft <= 0 {
		return 0 < p
	}
	if ft < p && ev.tame {
		// v = fl(ft − pw·integral) ≤ ft exactly: subtracting a
		// non-negative value under round-to-nearest cannot round above
		// the representable minuend.
		return true
	}
	const n = quadPoints
	eNegT := 0.0
	if ev.fastOK {
		eNegT = math.Exp(-theta * t)
	}
	if eNegT >= 1e-290 {
		full := int(ft * n)
		if full > n {
			full = n
		}
		// Terms split at the clamp boundary: bins with s_i > t contribute
		// exactly e^0 = 1 each; the rest factor through the prefix table.
		m := ev.searchClamp(t, full)
		pad := sumPad(theta*t, m, full)
		sum := eNegT*ev.prefixE[m] + float64(full-m)
		sumLo, sumHi := sum*(1-pad), sum*(1+pad)

		frac := ft - float64(full)/n
		hasFrac := frac > 0 && full < n
		// Stage 1 brackets the fractional-bin term by neighbouring table
		// quantiles; stage 2 computes it exactly (still cheap: one
		// inverse-normal and one exp) if the verdict is close.
		fracPart := -1.0
		fracLo, fracHi := 0.0, 0.0
		if hasFrac {
			lo := 0.0
			if full >= 1 {
				lo = ev.sTab[full-1]
			}
			hi := math.Inf(1)
			if full+1 < n {
				hi = ev.sTab[full+1]
			}
			fracLo, fracHi = ev.fracBounds(t, frac, lo, hi, pad)
		}
		for stage := 0; stage < 2; stage++ {
			// The exact path's expressions, in its order, on the bounds:
			// monotone rounding keeps vLo ≤ v ≤ vHi. NaN/Inf artifacts
			// fail both comparisons and fall through to the exact path —
			// never a wrong verdict.
			iLo, iHi := sumLo/n, sumHi/n
			if hasFrac {
				iLo += fracLo
				iHi += fracHi
			}
			if vHi := ft - ev.pw*iLo; vHi < p {
				return true
			}
			if vLo := ft - ev.pw*iHi; vLo >= p {
				return false
			}
			if stage == 1 || !hasFrac {
				break
			}
			u := (float64(full)/n + ft) / 2
			s := svc.Quantile(u)
			if s > t {
				s = t
			}
			fracPart = frac * math.Exp(-theta*(t-s))
			fracLo, fracHi = fracPart, fracPart
		}
		ev.fallbacks++
		return ev.sojournCDFStable(t, ft, fracPart) < p
	}
	ev.fallbacks++
	return ev.sojournCDFStable(t, ft, -1) < p
}

// searchClamp returns the count of table entries among the first full
// bins with s_i ≤ t (the rest are clamped to t by the quadrature loop).
func (ev *Evaluator) searchClamp(t float64, full int) int {
	lo, hi := 0, full
	for lo < hi {
		mid := (lo + hi) / 2
		if ev.sTab[mid] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// fracBounds brackets the exact path's frac·e^{-θ(t-s_u)} given table
// neighbours sLo < s_u < sHi. The neighbours sit half a bin or more
// outside the fractional bin, far beyond the quantile approximation's
// error, so only the two exps' rounding needs padding.
func (ev *Evaluator) fracBounds(t, frac, sLo, sHi, pad float64) (lo, hi float64) {
	if sLo > t {
		sLo = t
	}
	if sHi > t {
		sHi = t
	}
	lo = frac*math.Exp(-ev.theta*(t-sLo))*(1-pad) - boundTiny
	hi = frac*math.Exp(-ev.theta*(t-sHi))*(1+pad) + boundTiny
	return lo, hi
}

// SojournQuantile returns the p-quantile of the sojourn time,
// bit-identical to Analytic.SojournQuantile.
func (ev *Evaluator) SojournQuantile(p float64) float64 {
	a := ev.a
	if a.Servers <= 0 {
		return math.Inf(1)
	}
	if !ev.stable {
		interval := a.IntervalS
		if interval <= 0 {
			interval = 1
		}
		cmu := float64(a.Servers) / a.SvcMean
		excess := a.Lambda - cmu
		if excess <= 0 {
			excess = 1e-9
		}
		return a.SvcMean + p*interval*excess/cmu
	}
	// ev.pw/ev.theta are the very values MeanWait divides, so the
	// bracket start is bit-identical to the original.
	lo, hi := 0.0, a.SvcMean*4+(ev.pw/ev.theta)*4+1e-6
	for ev.cdfLess(hi, p) {
		hi *= 2
		if hi > 1e6 {
			return math.Inf(1)
		}
	}
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if ev.cdfLess(mid, p) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// latKey identifies one latency solve: the full queue parameter set plus
// the quantile and QoS budget asked of it. Exact float64 equality only —
// a hit can never change bits, because the cached values are outputs of
// the same pure function of the key.
type latKey struct {
	a           Analytic
	pct, budget float64
}

type latVal struct{ p95, frac float64 }

// Cache memoizes latency solves across nodes and steps. Fleet
// simulations ask the same question many times over: under round-robin
// dispatch every node sees the same arrival rate, and diurnal traces
// revisit load levels, so one solve serves a whole fleet interval.
//
// Safe under concurrent use. Entry count is bounded; on overflow the
// solve map is cleared rather than evicted piecemeal, which keeps
// behavior deterministic regardless of insertion order and, once warm,
// lets a miss reuse the map's storage instead of allocating.
type Cache struct {
	mu   sync.Mutex
	sols map[latKey]latVal
}

// cacheMaxEntries bounds the solve map (~6 MiB at the cap) so unbounded
// load mixes (e.g. least-loaded dispatch with noisy feedback) cannot grow
// memory without limit over very long runs.
const cacheMaxEntries = 1 << 16

// NewCache returns an empty latency-solve cache.
func NewCache() *Cache {
	return &Cache{sols: make(map[latKey]latVal)}
}

// Solve returns SojournQuantile(pct) and, when budget > 0,
// FractionWithin(budget) for the queue, consulting the cache first. ev
// is caller-owned scratch (reused across calls to stay allocation-free);
// a nil receiver computes directly. Results are bit-identical to calling
// the Analytic methods.
func (c *Cache) Solve(a Analytic, pct, budget float64, ev *Evaluator) (p95, frac float64) {
	if budget < 0 {
		// frac is unused by callers without a positive budget; normalize
		// so backlog-inflated keys dedupe.
		budget = 0
	}
	k := latKey{a: a, pct: pct, budget: budget}
	if c != nil {
		c.mu.Lock()
		v, ok := c.sols[k]
		c.mu.Unlock()
		if ok {
			return v.p95, v.frac
		}
	}
	ev.Init(a)
	p95 = ev.SojournQuantile(pct)
	if budget > 0 {
		frac = ev.SojournCDF(budget)
	}
	if c != nil {
		c.mu.Lock()
		if len(c.sols) >= cacheMaxEntries {
			clear(c.sols)
		}
		c.sols[k] = latVal{p95: p95, frac: frac}
		c.mu.Unlock()
	}
	return p95, frac
}
