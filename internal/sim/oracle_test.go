package sim

import (
	"math"
	"testing"

	"sturgeon/internal/cache"
	"sturgeon/internal/hw"
	"sturgeon/internal/queueing"
	"sturgeon/internal/workload"
)

// freshStep is the reference every oracle query must reproduce bit for
// bit: a fresh quiet node, cfg applied, one step at qps.
func freshStep(t *testing.T, ls, be workload.Profile, cfg hw.Config, qps float64) IntervalStats {
	t.Helper()
	n := QuietNode(ls, be, 5)
	if err := n.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	return n.Step(1, qps)
}

// TestOracleMatchesFreshQuietNode checks Measure, QoSOK at margin 1 and
// PowerW against a fresh quiet node per query, over loads up to 1.2 ×
// peak (where the first interval builds a backlog the next query must
// not inherit) and a zero-core LS allocation.
func TestOracleMatchesFreshQuietNode(t *testing.T) {
	spec := hw.DefaultSpec()
	allocs := []hw.Alloc{
		{},
		{Cores: 4, Freq: 1.6, LLCWays: 6},
		{Cores: 10, Freq: 2.2, LLCWays: 10},
		{Cores: 19, Freq: 1.2, LLCWays: 19},
	}
	for _, ls := range workload.LSServices() {
		for _, be := range []workload.Profile{workload.Blackscholes(), workload.Raytrace()} {
			o := NewOracle(ls, be, 1, queueing.NewCache())
			for _, frac := range []float64{0, 0.2, 0.5, 1.2} {
				qps := frac * ls.PeakQPS
				for _, a := range allocs {
					for _, beF := range []hw.GHz{spec.FreqMin, spec.FreqMax} {
						cfg := hw.Complement(spec, a, beF)
						want := freshStep(t, ls, be, cfg, qps)
						for rep := 0; rep < 2; rep++ {
							got, err := o.Measure(cfg, qps)
							if err != nil {
								t.Fatal(err)
							}
							if intervalDigest([]IntervalStats{got}) != intervalDigest([]IntervalStats{want}) {
								t.Fatalf("%s+%s %v at %.1f×peak (query %d): Measure %+v, fresh node %+v", ls.Name, be.Name, cfg, frac, rep, got, want)
							}
						}
						if got := o.PowerW(cfg, qps); math.Float64bits(float64(got)) != math.Float64bits(float64(want.TruePower)) {
							t.Errorf("%s+%s %v at %.1f×peak: PowerW %v, fresh node %v", ls.Name, be.Name, cfg, frac, got, want.TruePower)
						}
					}
				}
				// QoSOK over the LS grid: the verdict near the boundary
				// turns on the BE complement's bus traffic.
				for c := 0; c < spec.Cores; c++ {
					for _, f := range spec.FreqLevels() {
						for _, l := range []int{2, 10} {
							a := hw.Alloc{Cores: c, Freq: f, LLCWays: l}
							want := freshStep(t, ls, be, hw.Complement(spec, a, spec.FreqMin), qps).TrueP95 <= ls.QoSTargetS
							if got := o.QoSOK(a, qps); got != want {
								t.Errorf("%s+%s %v at %.1f×peak: QoSOK %v, fresh node %v", ls.Name, be.Name, a, frac, got, want)
							}
						}
					}
				}
			}
			if !o.QoSOK(hw.Alloc{}, 0) || o.QoSOK(hw.Alloc{}, 1) {
				t.Errorf("%s: a zero-core LS allocation must hold QoS exactly when idle", ls.Name)
			}
		}
	}
}

// TestOracleThroughputIsSoloSettle checks Throughput on the whole
// machine against the BE-alone bus settle that SoloBEThroughput was.
func TestOracleThroughputIsSoloSettle(t *testing.T) {
	spec, bus := hw.DefaultSpec(), cache.DefaultBus()
	solo := hw.SoloBE(spec).BE
	for _, be := range workload.BEApps() {
		var st workload.BEState
		bus.Settle(func(c float64) float64 {
			st = be.BERate(solo, c)
			return st.BandwidthGBs
		})
		got := NewOracle(workload.Memcached(), be, 1, nil).Throughput(solo)
		if math.Float64bits(got) != math.Float64bits(st.ThroughputUPS) {
			t.Errorf("%s: Throughput %v, settle %v", be.Name, got, st.ThroughputUPS)
		}
		if s := SoloBEThroughput(spec, bus, be); math.Float64bits(s) != math.Float64bits(got) {
			t.Errorf("%s: SoloBEThroughput %v, oracle %v", be.Name, s, got)
		}
	}
}

// TestLSPeakPowerMatchesSteppedSoloLS checks the power budget against a
// quiet node stepped with every resource at peak load.
func TestLSPeakPowerMatchesSteppedSoloLS(t *testing.T) {
	for _, ls := range workload.LSServices() {
		n := QuietNode(ls, workload.Blackscholes(), 3)
		want := freshStep(t, ls, workload.Blackscholes(), hw.SoloLS(n.Spec), ls.PeakQPS).TruePower
		if got := LSPeakPower(n.Spec, n.PowerParams, n.Bus, ls); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Errorf("%s: LSPeakPower %v, stepped solo node %v", ls.Name, got, want)
		}
	}
}

// TestOracleQueriesAllocFree pins every oracle query at zero heap
// allocations once the latency cache holds its solve: placement scores
// on the fleet's serial merge path.
func TestOracleQueriesAllocFree(t *testing.T) {
	ls := workload.Memcached()
	o := NewOracle(ls, workload.Blackscholes(), 0.9, queueing.NewCache())
	a := hw.Alloc{Cores: 12, Freq: 2.0, LLCWays: 12}
	cfg := hw.Config{LS: a, BE: hw.Alloc{Cores: 8, Freq: 1.6, LLCWays: 8}}
	qps := 0.45 * ls.PeakQPS
	queries := map[string]func(){
		"QoSOK":      func() { o.QoSOK(a, qps) },
		"PowerW":     func() { o.PowerW(cfg, qps) },
		"Throughput": func() { o.Throughput(cfg.BE) },
		"Measure":    func() { o.Measure(cfg, qps) },
	}
	for name, q := range queries {
		q()
		if allocs := testing.AllocsPerRun(100, q); allocs != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, allocs)
		}
	}
}
