package queueing

import "math"

// Analytic is a G/G/c queue approximation producing the sojourn-time
// (wait + service) distribution. The waiting time is modelled as a point
// mass at zero with probability 1−Pw (Erlang C) and an exponential tail
// with rate θ = 2(cμ−λ)/(CVa²+CVs²) — the Allen–Cunneen correction that
// keeps the mean wait exact for M/M/c and accounts for both service
// variability and arrival burstiness. The sojourn CDF is the exact
// convolution of that wait law with the lognormal service distribution,
// evaluated by quantile-grid quadrature.
type Analytic struct {
	// Lambda is the arrival rate (queries/s).
	Lambda float64
	// Servers is the number of cores serving queries.
	Servers int
	// SvcMean is the mean service time in seconds.
	SvcMean float64
	// SvcCV is the service-time coefficient of variation.
	SvcCV float64
	// ArrivalCV is the coefficient of variation of the arrival process
	// (1 or 0 = Poisson). Datacenter services see bursty traffic —
	// batched RPC fan-outs, TCP coalescing — with CVa well above 1,
	// which is what makes their tails rise long before saturation.
	ArrivalCV float64
	// IntervalS is the measurement interval used for the saturated-queue
	// transient model; zero means 1 s (the paper's sampling interval).
	IntervalS float64
}

// variability returns CVa² + CVs².
func (a Analytic) variability() float64 {
	ca := a.ArrivalCV
	if ca <= 0 {
		ca = 1
	}
	return ca*ca + a.SvcCV*a.SvcCV
}

// quadPoints is the number of service-quantile quadrature points used for
// the sojourn-CDF convolution.
const quadPoints = 96

// quadZ caches the standard-normal quantiles of the bin midpoints: the
// lognormal service quantile of bin i is exp(mu + sigma·quadZ[i]), so a
// CDF evaluation costs one exp per bin instead of a full inverse-normal.
var quadZ = func() [quadPoints]float64 {
	var z [quadPoints]float64
	for i := range z {
		z[i] = stdNormalQuantile((float64(i) + 0.5) / quadPoints)
	}
	return z
}()

// Rho returns the offered utilization λ·E[S]/c.
func (a Analytic) Rho() float64 {
	if a.Servers <= 0 {
		return math.Inf(1)
	}
	return a.Lambda * a.SvcMean / float64(a.Servers)
}

// Stable reports whether the queue has a steady state.
func (a Analytic) Stable() bool { return a.Rho() < 1 && a.Servers > 0 }

// ErlangC returns the probability an arriving query must wait.
func (a Analytic) ErlangC() float64 {
	if !a.Stable() {
		return 1
	}
	offered := a.Lambda * a.SvcMean // a = λ/μ
	// Erlang-B recursion, then convert to Erlang C.
	b := 1.0
	for k := 1; k <= a.Servers; k++ {
		b = offered * b / (float64(k) + offered*b)
	}
	rho := a.Rho()
	return b / (1 - rho*(1-b))
}

// waitTailRate returns θ of the exponential wait tail.
func (a Analytic) waitTailRate() float64 {
	cmu := float64(a.Servers) / a.SvcMean
	return 2 * (cmu - a.Lambda) / a.variability()
}

// MeanWait returns the Allen–Cunneen mean waiting time.
func (a Analytic) MeanWait() float64 {
	if !a.Stable() {
		return math.Inf(1)
	}
	return a.ErlangC() / a.waitTailRate()
}

// SojournCDF returns P(T ≤ t) for the sojourn time T = W + S:
// F_T(t) = F_S(t) − Pw·∫₀ᵗ f_S(s)·e^{−θ(t−s)} ds. Substituting
// u = F_S(s) turns the integral into ∫₀^{F_S(t)} e^{−θ(t−Q_S(u))} du.
// The probability axis is split into quadPoints equal bins with
// precomputed service quantiles at their midpoints; the bin straddled
// by F_S(t) contributes its fractional mass, keeping the CDF
// continuous and invertible in t. The evaluation lives on Evaluator
// (eval.go) so repeated queries share the t-independent setup.
func (a Analytic) SojournCDF(t float64) float64 {
	var ev Evaluator
	ev.Init(a)
	return ev.SojournCDF(t)
}

// saturatedFractionWithin models an overloaded interval transient: with
// λ ≥ cμ over an interval starting near-empty, the backlog grows linearly,
// so a query arriving at offset τ waits ≈ (λ−cμ)τ/(cμ) service positions.
// The fraction finishing within t shrinks as the interval progresses.
func (a Analytic) saturatedFractionWithin(t float64) float64 {
	interval := a.IntervalS
	if interval <= 0 {
		interval = 1
	}
	cmu := float64(a.Servers) / a.SvcMean
	excess := a.Lambda - cmu
	if excess <= 0 {
		excess = 1e-9
	}
	// Latest arrival offset that still meets t (minus one mean service).
	budget := t - a.SvcMean
	if budget <= 0 {
		return 0
	}
	tauMax := budget * cmu / excess
	frac := tauMax / interval
	if frac > 1 {
		frac = 1
	}
	return frac
}

// FractionWithin returns the fraction of queries whose sojourn time is at
// most t — the paper's "QoS guarantee rate" contribution of one interval.
func (a Analytic) FractionWithin(t float64) float64 {
	return a.SojournCDF(t)
}

// SojournQuantile returns the p-quantile of the sojourn time by bisection
// on the CDF. It returns +Inf for an unstable queue whose transient model
// cannot reach p within the interval.
func (a Analytic) SojournQuantile(p float64) float64 {
	var ev Evaluator
	ev.Init(a)
	return ev.SojournQuantile(p)
}
