package core

import (
	"math"
	"sync"
	"testing"

	"sturgeon/internal/hw"
	"sturgeon/internal/models"
	"sturgeon/internal/power"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

// App fixture: memcached + xapian sharing a node with raytrace +
// swaptions, one half-predictor per application.
var (
	appsOnce sync.Once
	appsS    *AppSearcher
)

func appsFixture(t *testing.T) *AppSearcher {
	t.Helper()
	appsOnce.Do(func() {
		apps := []workload.Profile{workload.Memcached(), workload.Xapian(),
			workload.Raytrace(), workload.Swaptions()}
		opts := models.CollectOptions{Samples: 1300, IntervalsPerSample: 2, Seed: 5}
		preds := make([]*models.Predictor, len(apps))
		for i, a := range apps {
			var err error
			if a.Class == workload.LS {
				preds[i], err = models.FitLS(a, models.SweepLS(a, opts), 5)
			} else {
				preds[i], err = models.FitBE(a, models.SweepBE(a, opts), 5)
			}
			if err != nil {
				panic(err)
			}
		}
		params := power.DefaultParams()
		// Budget: the larger single-service peak plus a margin that
		// reflects right-sizing for the co-located primaries.
		b1 := sim.LSPeakPower(hw.DefaultSpec(), params, sim.QuietNode(apps[0], apps[2], 1).Bus, apps[0])
		appsS = &AppSearcher{Spec: hw.DefaultSpec(), Apps: apps, Preds: preds,
			Budget: b1 * 1.1, IdleW: params.IdleW}
	})
	return appsS
}

// quietApps builds a k-app node without noise or interference.
func quietApps(apps []workload.Profile, seed int64) *sim.AppNode {
	n := sim.NewAppNode(apps, seed)
	n.Node.Meter = power.NewMeter(0, nil)
	n.Node.Interf = sim.None()
	n.Node.P95NoiseSD = 0
	return n
}

func TestAppSearcherIndices(t *testing.T) {
	s := &AppSearcher{Apps: []workload.Profile{workload.Memcached(), workload.Raytrace(), workload.Xapian()}}
	if got := s.indices(workload.LS); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("LS indices = %v", got)
	}
	if got := s.indices(workload.BE); len(got) != 1 || got[0] != 1 {
		t.Errorf("BE indices = %v", got)
	}
}

func TestAppSearcherSatisfiesBothServices(t *testing.T) {
	s := appsFixture(t)
	apps := s.Apps
	qps := []float64{0.3 * apps[0].PeakQPS, 0.3 * apps[1].PeakQPS}
	p, ok := s.Best(qps)
	if !ok {
		t.Fatal("search declared the mix unsatisfiable")
	}
	if err := hw.ValidatePartition(s.Spec, p...); err != nil {
		t.Fatal(err)
	}
	// Both services staffed, both BE applications running.
	for _, i := range s.indices(workload.LS) {
		if p[i].Cores < 1 {
			t.Errorf("service %d unstaffed: %v", i, p)
		}
	}
	beCores := 0
	for _, j := range s.indices(workload.BE) {
		beCores += p[j].Cores
	}
	if beCores < 2 {
		t.Errorf("best-effort side starved: %v", p)
	}
	// The physics must confirm the partition: QoS for both, power under
	// the unguarded budget.
	n := quietApps(apps, 9)
	if err := n.Apply(p); err != nil {
		t.Fatal(err)
	}
	truePower, _ := n.Step(qps)
	for _, i := range s.indices(workload.LS) {
		if n.Apps[i].TrueP95 > apps[i].QoSTargetS {
			t.Errorf("service %d violates QoS under %v: p95 %v", i, p[i], n.Apps[i].TrueP95)
		}
	}
	if float64(truePower) > float64(s.Budget)*1.02 {
		t.Errorf("partition %v overloads: %v vs %v", p, truePower, s.Budget)
	}
}

func TestAppSearcherScalesWithLoad(t *testing.T) {
	s := appsFixture(t)
	apps := s.Apps
	lo, _ := s.Best([]float64{0.2 * apps[0].PeakQPS, 0.2 * apps[1].PeakQPS})
	hi, _ := s.Best([]float64{0.7 * apps[0].PeakQPS, 0.7 * apps[1].PeakQPS})
	capacity := func(p []hw.Alloc) float64 {
		return float64(p[0].Cores)*float64(p[0].Freq) + float64(p[1].Cores)*float64(p[1].Freq)
	}
	if capacity(hi) <= capacity(lo) {
		t.Errorf("LS capacity did not grow with load: %v -> %v", capacity(lo), capacity(hi))
	}
}

func TestAppControllerEndToEnd(t *testing.T) {
	s := appsFixture(t)
	apps := s.Apps
	node := sim.NewAppNode(apps, 13)
	ctrl := NewAppController(s)

	// Start with everything granted to the first service (the k-app
	// analogue of Alg. 1 line 1).
	part := make([]hw.Alloc, len(apps))
	for i := range part {
		part[i].Freq = s.Spec.FreqMin
	}
	part[0] = hw.Alloc{Cores: s.Spec.Cores, Freq: s.Spec.FreqMax, LLCWays: s.Spec.LLCWays}
	if err := node.Apply(part); err != nil {
		t.Fatal(err)
	}

	const dur = 200
	tr0 := workload.Triangle(0.2, 0.6, dur)
	tr1 := workload.Triangle(0.3, 0.5, dur)
	budget := power.NewBudget(s.Budget)
	p95 := make([]float64, len(apps))
	var okQ, totQ, beWork float64
	for i := 0; i < dur; i++ {
		tt := float64(i + 1)
		qps := []float64{tr0(tt) * apps[0].PeakQPS, tr1(tt) * apps[1].PeakQPS}
		truePower, measured := node.Step(qps)
		budget.Observe(truePower)
		for j, a := range node.Apps {
			if apps[j].Class == workload.LS {
				okQ += a.QPS * a.QoSFrac
				totQ += a.QPS
				p95[j] = a.P95
			} else {
				beWork += a.BE.ThroughputUPS
			}
		}
		part = ctrl.Decide(part, p95, qps, measured)
		if err := node.Apply(part); err != nil {
			t.Fatalf("controller emitted invalid partition at t=%v: %v", tt, err)
		}
	}
	if qos := okQ / totQ; qos < 0.9 {
		t.Errorf("multi-service QoS rate %.4f collapsed", qos)
	}
	if beWork <= 0 {
		t.Error("no best-effort work at all")
	}
	if budget.OverloadFraction() > 0.1 {
		t.Errorf("overload fraction %.3f", budget.OverloadFraction())
	}
	if ctrl.Searches == 0 {
		t.Error("controller never searched")
	}
}

func TestAppSearcherPowerComposition(t *testing.T) {
	s := appsFixture(t)
	apps := s.Apps
	p := []hw.Alloc{
		{Cores: 5, Freq: 1.8, LLCWays: 5},
		{Cores: 5, Freq: 1.8, LLCWays: 5},
		{Cores: 5, Freq: 1.6, LLCWays: 5},
		{Cores: 5, Freq: 1.6, LLCWays: 5},
	}
	qps := []float64{0.3 * apps[0].PeakQPS, 0.3 * apps[1].PeakQPS}
	pred := float64(s.powerW(p, qps))
	n := quietApps(apps, 17)
	if err := n.Apply(p); err != nil {
		t.Fatal(err)
	}
	truePower, _ := n.Step(qps)
	truth := float64(truePower)
	if rel := math.Abs(pred-truth) / truth; rel > 0.12 {
		t.Errorf("power composition off: pred %.1f vs truth %.1f (rel %.3f)", pred, truth, rel)
	}
}
