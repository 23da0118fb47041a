package queueing

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// referenceSojournCDF is the pre-Evaluator implementation, kept verbatim
// as the bit-exactness oracle: the optimized path must reproduce every
// bit it produces, because fleet summaries hash values derived from it.
func referenceSojournCDF(a Analytic, t float64) float64 {
	if t <= 0 {
		return 0
	}
	if a.Servers <= 0 {
		return 0
	}
	if !a.Stable() {
		return a.saturatedFractionWithin(t)
	}
	pw := a.ErlangC()
	theta := a.waitTailRate()
	svc := NewLogNormal(a.SvcMean, a.SvcCV)
	ft := svc.CDF(t)
	if ft <= 0 {
		return 0
	}
	const n = quadPoints
	sum := 0.0
	full := int(ft * n)
	if full > n {
		full = n
	}
	for i := 0; i < full; i++ {
		s := math.Exp(svc.Mu + svc.Sigma*quadZ[i])
		if s > t {
			s = t
		}
		sum += math.Exp(-theta * (t - s))
	}
	integral := sum / n
	if frac := ft - float64(full)/n; frac > 0 && full < n {
		u := (float64(full)/n + ft) / 2
		s := svc.Quantile(u)
		if s > t {
			s = t
		}
		integral += frac * math.Exp(-theta*(t-s))
	}
	v := ft - pw*integral
	if v < 0 {
		return 0
	}
	return v
}

func referenceSojournQuantile(a Analytic, p float64) float64 {
	if a.Servers <= 0 {
		return math.Inf(1)
	}
	if !a.Stable() {
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
	lo, hi := 0.0, a.SvcMean*4+a.MeanWait()*4+1e-6
	for referenceSojournCDF(a, hi) < p {
		hi *= 2
		if hi > 1e6 {
			return math.Inf(1)
		}
	}
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if referenceSojournCDF(a, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// evalGrid spans light load through deep saturation, Poisson through
// heavily bursty arrivals, and near-deterministic through heavy-tailed
// service — the regimes node physics actually visits.
func evalGrid() []Analytic {
	var out []Analytic
	for _, servers := range []int{1, 4, 8, 12} {
		for _, svcMean := range []float64{0.0001, 0.0003, 0.002} {
			for _, util := range []float64{0.05, 0.5, 0.85, 0.97, 0.999, 1.05, 1.4} {
				lambda := util * float64(servers) / svcMean
				for _, cv := range []float64{0.3, 0.7, 1.5} {
					for _, acv := range []float64{0, 1, 2.8} {
						out = append(out, Analytic{
							Lambda: lambda, Servers: servers,
							SvcMean: svcMean, SvcCV: cv,
							ArrivalCV: acv, IntervalS: 1,
						})
					}
				}
			}
		}
	}
	out = append(out, Analytic{Lambda: 10, Servers: 0, SvcMean: 0.001, SvcCV: 0.5})
	return out
}

func TestEvaluatorCDFBitIdentical(t *testing.T) {
	for _, a := range evalGrid() {
		var ev Evaluator
		ev.Init(a)
		for _, x := range []float64{
			-1, 0, 1e-6, 5e-5, 1e-4, 3e-4, 1e-3, 4e-3, 0.01, 0.05, 0.3, 2, 50, 1e4,
		} {
			got := ev.SojournCDF(x)
			want := referenceSojournCDF(a, x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("SojournCDF(%v) on %+v: got %x want %x",
					x, a, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

func TestEvaluatorQuantileBitIdentical(t *testing.T) {
	for _, a := range evalGrid() {
		var ev Evaluator
		ev.Init(a)
		for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
			got := ev.SojournQuantile(p)
			want := referenceSojournQuantile(a, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("SojournQuantile(%v) on %+v: got %v (%x) want %v (%x)",
					p, a, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestEvaluatorReuse pins that Init fully resets the evaluator: answers
// after re-initialization match a fresh evaluator bit for bit.
func TestEvaluatorReuse(t *testing.T) {
	grid := evalGrid()
	var reused Evaluator
	for _, a := range grid {
		reused.Init(a)
		var fresh Evaluator
		fresh.Init(a)
		for _, p := range []float64{0.9, 0.95} {
			if g, w := reused.SojournQuantile(p), fresh.SojournQuantile(p); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("reused evaluator diverged on %+v p=%v: %v vs %v", a, p, g, w)
			}
		}
		if g, w := reused.FractionWithin(0.01), fresh.FractionWithin(0.01); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("reused evaluator FractionWithin diverged on %+v: %v vs %v", a, g, w)
		}
	}
}

func TestCacheSolveMatchesDirect(t *testing.T) {
	c := NewCache()
	var ev Evaluator
	for _, a := range evalGrid() {
		for _, budget := range []float64{-0.001, 0, 0.01} {
			wantP95 := referenceSojournQuantile(a, 0.95)
			wantFrac := 0.0
			if budget > 0 {
				wantFrac = referenceSojournCDF(a, budget)
			}
			for pass := 0; pass < 2; pass++ { // miss then hit
				p95, frac := c.Solve(a, 0.95, budget, &ev)
				if math.Float64bits(p95) != math.Float64bits(wantP95) ||
					math.Float64bits(frac) != math.Float64bits(wantFrac) {
					t.Fatalf("Solve pass %d on %+v budget %v: got (%v,%v) want (%v,%v)",
						pass, a, budget, p95, frac, wantP95, wantFrac)
				}
			}
			// Nil cache computes directly.
			p95, frac := (*Cache)(nil).Solve(a, 0.95, budget, &ev)
			if math.Float64bits(p95) != math.Float64bits(wantP95) ||
				math.Float64bits(frac) != math.Float64bits(wantFrac) {
				t.Fatalf("nil-cache Solve on %+v budget %v: got (%v,%v) want (%v,%v)",
					a, budget, p95, frac, wantP95, wantFrac)
			}
		}
	}
}

// TestCacheBounded pins the overflow behavior: the solve map resets at
// the cap instead of growing without limit, and served values stay
// correct either way.
func TestCacheBounded(t *testing.T) {
	c := NewCache()
	a := Analytic{Lambda: 20000, Servers: 8, SvcMean: 0.0003, SvcCV: 0.7, ArrivalCV: 2.8, IntervalS: 1}
	var ev Evaluator
	c.sols = make(map[latKey]latVal)
	for i := 0; i < cacheMaxEntries; i++ {
		c.sols[latKey{a: a, pct: float64(i)}] = latVal{}
	}
	p95, _ := c.Solve(a, 0.95, 0.01, &ev)
	if len(c.sols) > 1 {
		t.Fatalf("cache not reset at cap: %d entries", len(c.sols))
	}
	if want := referenceSojournQuantile(a, 0.95); math.Float64bits(p95) != math.Float64bits(want) {
		t.Fatalf("post-reset solve wrong: got %v want %v", p95, want)
	}
}

// randomQueue draws a stable queue from the regimes evalGrid spans, but
// at continuous parameter values so bisection midpoints land anywhere.
func randomQueue(rng *rand.Rand) Analytic {
	servers := 1 + rng.Intn(16)
	svcMean := 5e-5 * math.Pow(100, rng.Float64())
	util := 0.01 + 0.989*rng.Float64()
	return Analytic{
		Lambda: util * float64(servers) / svcMean, Servers: servers,
		SvcMean: svcMean, SvcCV: 0.05 + 2.95*rng.Float64(),
		ArrivalCV: 3 * rng.Float64(), IntervalS: 1,
	}
}

// bigExp is e^x to ~140 bits: a Taylor series on x/2^12, squared back.
func bigExp(x float64) *big.Float {
	const prec, halvings = 160, 12
	y := new(big.Float).SetPrec(prec).SetFloat64(x)
	y.SetMantExp(y, -halvings)
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	k := new(big.Float).SetPrec(prec)
	for i := 1; i < 30; i++ {
		term.Mul(term, y)
		term.Quo(term, k.SetInt64(int64(i)))
		sum.Add(sum, term)
	}
	for i := 0; i < halvings; i++ {
		sum.Mul(sum, sum)
	}
	return sum
}

// TestExpWithinErrorModel pins the premise of the bound pads: math.Exp on
// this platform stays within expErrU·u relative error over the argument
// range the bounds use (|θt| ≤ 668 and the prefix table's θ·s_i).
func TestExpWithinErrorModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	worst := 0.0
	for i := 0; i < 6000; i++ {
		x := (2*rng.Float64() - 1) * []float64{1, 20, 700}[i%3]
		ref := bigExp(x)
		d := new(big.Float).SetPrec(ref.Prec()).SetFloat64(math.Exp(x))
		d.Sub(d, ref).Quo(d, ref)
		rel, _ := d.Float64()
		worst = math.Max(worst, math.Abs(rel)/unitRoundoff)
	}
	t.Logf("worst math.Exp error %.3f u (model allows %d u)", worst, expErrU)
	if worst > expErrU {
		t.Fatalf("math.Exp error %.3f u exceeds the %d u the bound pads assume", worst, expErrU)
	}
}

// TestCDFLessBoundary probes cdfLess where its bounds are tightest: at
// p equal to the exact CDF, a few ulps either side, and fractions and
// multiples of the derived pad either side. Every verdict must match the
// exact comparison, and well outside the pad the bounds must decide
// without the exact sum.
func TestCDFLessBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ev Evaluator
	const n = quadPoints
	probes, decided := 0, 0
	for q := 0; q < 250; q++ {
		a := randomQueue(rng)
		ev.Init(a)
		for j := 0; j < 8; j++ {
			x := ev.SojournQuantile(0.05 + 0.949*rng.Float64())
			if j%2 == 1 {
				x *= 1 + 1e-3*rng.NormFloat64()
			}
			v := referenceSojournCDF(a, x)
			ft := ev.svc.CDF(x)
			full := min(int(ft*n), n)
			padAbs := sumPad(ev.theta*x, ev.searchClamp(x, full), full) * (ft - v)
			ps := []float64{v}
			for _, k := range []int{1, 2, 4} {
				up, down := v, v
				for i := 0; i < k; i++ {
					up, down = math.Nextafter(up, 2), math.Nextafter(down, -1)
				}
				ps = append(ps, up, down)
			}
			for _, k := range []float64{0.5, 1, 2, 8} {
				ps = append(ps, v+k*padAbs, v-k*padAbs)
			}
			for i, p := range ps {
				before := ev.fallbacks
				if got, want := ev.cdfLess(x, p), v < p; got != want {
					t.Fatalf("cdfLess(%v, %v) on %+v = %v, exact CDF %v says %v",
						x, p, a, got, v, want)
				}
				probes++
				// The last two probes sit 8 pads out; once that is wider
				// than the CDF's own rounding, the bounds must settle it.
				if i >= len(ps)-2 && 8*padAbs > 64*ulp(ft) {
					decided++
					if ev.fallbacks != before {
						t.Fatalf("cdfLess(%v, %v) on %+v fell back 8 pads from the CDF %v",
							x, p, a, v)
					}
				}
			}
		}
	}
	if decided < probes/20 {
		t.Fatalf("only %d of %d probes exercised the 8-pad decision check", decided, probes)
	}
}

func ulp(v float64) float64 { return math.Nextafter(v, math.Inf(1)) - v }

// TestEvaluatorQuantileOracle compares the Evaluator's quantile against
// the reference bit for bit on seeded random queues and quantiles.
func TestEvaluatorQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ev Evaluator
	for i := 0; i < 3000; i++ {
		a := randomQueue(rng)
		p := 0.5 + 0.499*rng.Float64()
		ev.Init(a)
		got, want := ev.SojournQuantile(p), referenceSojournQuantile(a, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SojournQuantile(%v) on %+v: got %v want %v", p, a, got, want)
		}
	}
}

// TestEvaluatorFallbacks pins how often the bisection needs the exact
// sum. With the fixed pads the derived ones replaced (3e-12 relative on
// the sum, 1e-12 on the bound algebra), the 540 stable evalGrid queues at
// p = 0.95 took 6605 exact-sum fallbacks, a mean of 12.23 per solve. A
// loosened pad must fail here, not only in the benchmark.
func TestEvaluatorFallbacks(t *testing.T) {
	const fixedPadMean = 6605.0 / 540
	var ev Evaluator
	solves := 0
	for _, a := range evalGrid() {
		if a.Stable() {
			ev.Init(a)
			ev.SojournQuantile(0.95)
			solves++
		}
	}
	mean := float64(ev.fallbacks) / float64(solves)
	t.Logf("%d solves, %d exact-sum fallbacks, %.2f per solve (fixed pads: %.2f)",
		solves, ev.fallbacks, mean, fixedPadMean)
	if solves != 540 || mean > fixedPadMean/2 {
		t.Fatalf("%.2f fallbacks per solve over %d solves, want ≤ %.2f over 540",
			mean, solves, fixedPadMean/2)
	}
}

// TestCacheMissAllocs pins that a warm cache serves misses — new queue,
// new service distribution — without allocating: the s table is filled
// in the evaluator and the full solve map is cleared, not rebuilt. Hits
// are a map lookup and allocate nothing either.
func TestCacheMissAllocs(t *testing.T) {
	c := NewCache()
	var ev Evaluator
	a := Analytic{Lambda: 20000, Servers: 8, SvcMean: 0.0003, SvcCV: 0.7, ArrivalCV: 2.8, IntervalS: 1}
	for i := 0; i < cacheMaxEntries; i++ {
		c.sols[latKey{a: a, pct: float64(i)}] = latVal{}
	}
	allocs := testing.AllocsPerRun(200, func() {
		a.SvcMean *= 1.0001
		c.Solve(a, 0.95, 0.01, &ev)
	})
	if allocs != 0 {
		t.Fatalf("cache miss allocates %v times per solve, want 0", allocs)
	}
	a.SvcMean = 0.0003
	c.Solve(a, 0.95, 0.01, &ev)
	if allocs := testing.AllocsPerRun(200, func() { c.Solve(a, 0.95, 0.01, &ev) }); allocs != 0 {
		t.Fatalf("cache hit allocates %v times per solve, want 0", allocs)
	}
}

// FuzzEvaluatorQuantile compares the Evaluator with the reference bit for
// bit on arbitrary queue parameters and quantiles.
func FuzzEvaluatorQuantile(f *testing.F) {
	f.Add(20000.0, 8, 0.0003, 0.7, 2.8, 0.95)
	f.Add(100.0, 1, 0.002, 1.5, 0.0, 0.5)
	f.Add(4000.0, 12, 0.0029, 0.3, 1.0, 0.999)
	f.Add(10.0, 0, 0.001, 0.5, 1.0, 0.9)
	f.Add(5000.0, 1, 0.0003, 1e-9, 0.0, 0.95)
	f.Add(10.0, 1, 5e-324, 0.5, 1.0, 0.95) // cμ and θ overflow to +Inf
	f.Fuzz(func(t *testing.T, lambda float64, servers int, svcMean, svcCV, arrivalCV, p float64) {
		servers %= 65 // ErlangC is O(servers)
		a := Analytic{Lambda: lambda, Servers: servers, SvcMean: svcMean,
			SvcCV: svcCV, ArrivalCV: arrivalCV, IntervalS: 1}
		if a.Servers > 0 && a.Stable() && a.SvcMean*4+a.MeanWait()*4+1e-6 <= 0 {
			t.Skip("doubling a non-positive bracket never ends, in the reference too")
		}
		var ev Evaluator
		ev.Init(a)
		got, want := ev.SojournQuantile(p), referenceSojournQuantile(a, p)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("SojournQuantile(%v) on %+v: got %v want %v", p, a, got, want)
		}
	})
}

func BenchmarkEvaluatorSolve(b *testing.B) {
	a := Analytic{Lambda: 20000, Servers: 8, SvcMean: 0.0003, SvcCV: 0.7, ArrivalCV: 2.8, IntervalS: 1}
	var ev Evaluator
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Init(a)
		ev.SojournQuantile(0.95)
		ev.SojournCDF(0.010)
	}
}

// BenchmarkEvaluatorSolveGrid cycles the node-step pair of questions over
// every stable evalGrid queue, so the cost and the exact-sum fallback
// rate are those of the whole regime grid, not one queue.
func BenchmarkEvaluatorSolveGrid(b *testing.B) {
	var queues []Analytic
	for _, a := range evalGrid() {
		if a.Stable() {
			queues = append(queues, a)
		}
	}
	var ev Evaluator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Init(queues[i%len(queues)])
		ev.SojournQuantile(0.95)
		ev.SojournCDF(0.010)
	}
	b.ReportMetric(float64(ev.fallbacks)/float64(b.N), "fallbacks/op")
}

func BenchmarkCacheSolveHit(b *testing.B) {
	a := Analytic{Lambda: 20000, Servers: 8, SvcMean: 0.0003, SvcCV: 0.7, ArrivalCV: 2.8, IntervalS: 1}
	c := NewCache()
	var ev Evaluator
	c.Solve(a, 0.95, 0.010, &ev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Solve(a, 0.95, 0.010, &ev)
	}
}

// BenchmarkReferenceSolve measures the pre-Evaluator cost of the same
// two questions a node step asks, for speedup bookkeeping.
func BenchmarkReferenceSolve(b *testing.B) {
	a := Analytic{Lambda: 20000, Servers: 8, SvcMean: 0.0003, SvcCV: 0.7, ArrivalCV: 2.8, IntervalS: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		referenceSojournQuantile(a, 0.95)
		referenceSojournCDF(a, 0.010)
	}
}
