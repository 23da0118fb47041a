package multi

import (
	"sync"
	"testing"

	"sturgeon/internal/hw"
	"sturgeon/internal/models"
	"sturgeon/internal/power"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

// QuietNode builds a node with noise and interference disabled, so
// step results are a pure function of the partition.
func QuietNode(apps Apps, seed int64) *Node {
	n := NewNode(apps, seed)
	n.Meter = power.NewMeter(0, nil)
	n.Interf = sim.None()
	n.P95NoiseSD = 0
	return n
}

// Fixture: memcached + xapian sharing a node with raytrace + swaptions.
var (
	fixOnce sync.Once
	fixApps Apps
	fixS    *Searcher
)

func fixture(t *testing.T) (Apps, *Searcher) {
	t.Helper()
	fixOnce.Do(func() {
		fixApps = Apps{workload.Memcached(), workload.Xapian(),
			workload.Raytrace(), workload.Swaptions()}
		opts := models.CollectOptions{Samples: 1300, IntervalsPerSample: 2, Seed: 5}
		lsm := map[int]*models.LSModels{}
		bem := map[int]*models.BEModels{}
		for _, i := range fixApps.LSIndices() {
			m, err := models.FitLS(fixApps[i], models.SweepLS(fixApps[i], opts), 5)
			if err != nil {
				panic(err)
			}
			lsm[i] = m
		}
		for _, j := range fixApps.BEIndices() {
			m, err := models.FitBE(fixApps[j], models.SweepBE(fixApps[j], opts), 5)
			if err != nil {
				panic(err)
			}
			bem[j] = m
		}
		params := power.DefaultParams()
		// Budget: enough for both services at peak simultaneously would be
		// oversized; use the larger single-service peak plus a margin that
		// reflects right-sizing for the co-located primaries.
		b1 := sim.LSPeakPower(hw.DefaultSpec(), params, sim.QuietNode(fixApps[0], fixApps[2], 1).Bus, fixApps[0])
		fixS = &Searcher{
			Spec: hw.DefaultSpec(), Apps: fixApps,
			LS: lsm, BE: bem,
			Budget: b1 * 1.1,
			IdleW:  params.IdleW,
		}
	})
	return fixApps, fixS
}

func TestPartitionValidate(t *testing.T) {
	spec := hw.DefaultSpec()
	good := Partition{
		{Cores: 4, Freq: 1.6, LLCWays: 5},
		{Cores: 6, Freq: 1.8, LLCWays: 5},
		{Cores: 5, Freq: 1.2, LLCWays: 5},
	}
	if err := good.Validate(spec); err != nil {
		t.Fatal(err)
	}
	over := Partition{
		{Cores: 12, Freq: 1.6, LLCWays: 5},
		{Cores: 12, Freq: 1.8, LLCWays: 5},
	}
	if over.Validate(spec) == nil {
		t.Error("core oversubscription accepted")
	}
	ways := Partition{
		{Cores: 4, Freq: 1.6, LLCWays: 12},
		{Cores: 4, Freq: 1.8, LLCWays: 12},
	}
	if ways.Validate(spec) == nil {
		t.Error("way oversubscription accepted")
	}
}

func TestAppsIndexing(t *testing.T) {
	apps := Apps{workload.Memcached(), workload.Raytrace(), workload.Xapian()}
	if got := apps.LSIndices(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("LSIndices = %v", got)
	}
	if got := apps.BEIndices(); len(got) != 1 || got[0] != 1 {
		t.Errorf("BEIndices = %v", got)
	}
}

func TestNodeStepTwoServices(t *testing.T) {
	apps := Apps{workload.Memcached(), workload.Xapian(), workload.Raytrace()}
	n := QuietNode(apps, 3)
	p := Partition{
		{Cores: 6, Freq: 1.8, LLCWays: 6},
		{Cores: 6, Freq: 1.8, LLCWays: 6},
		{Cores: 8, Freq: 1.6, LLCWays: 8},
	}
	if err := n.Apply(p); err != nil {
		t.Fatal(err)
	}
	st := n.Step(1, []float64{0.2 * apps[0].PeakQPS, 0.3 * apps[1].PeakQPS})
	if st.Apps[0].QoSFrac < 0.95 || st.Apps[1].QoSFrac < 0.95 {
		t.Errorf("healthy partition violates QoS: %+v", st.Apps[:2])
	}
	if st.Apps[2].ThroughputUPS <= 0 {
		t.Error("BE made no progress")
	}
	if st.TruePower <= n.PowerParams.IdleW {
		t.Error("implausible power")
	}
}

func TestNodeRejectsBadPartitions(t *testing.T) {
	apps := Apps{workload.Memcached(), workload.Raytrace()}
	n := QuietNode(apps, 1)
	if err := n.Apply(Partition{{Cores: 4, Freq: 1.6, LLCWays: 4}}); err == nil {
		t.Error("wrong-length partition accepted")
	}
	if err := n.Apply(Partition{
		{Cores: 15, Freq: 1.6, LLCWays: 10},
		{Cores: 15, Freq: 1.6, LLCWays: 10},
	}); err == nil {
		t.Error("oversubscribed partition accepted")
	}
}

func TestSearcherSatisfiesBothServices(t *testing.T) {
	apps, s := fixture(t)
	qps := []float64{0.3 * apps[0].PeakQPS, 0.3 * apps[1].PeakQPS}
	p, ok := s.Best(qps)
	if !ok {
		t.Fatal("search declared the mix unsatisfiable")
	}
	if err := p.Validate(s.Spec); err != nil {
		t.Fatal(err)
	}
	// Both services staffed, both BE applications running.
	for _, i := range apps.LSIndices() {
		if p[i].Cores < 1 {
			t.Errorf("service %d unstaffed: %v", i, p)
		}
	}
	beCores := 0
	for _, j := range apps.BEIndices() {
		beCores += p[j].Cores
	}
	if beCores < 2 {
		t.Errorf("best-effort side starved: %v", p)
	}
	// The physics must confirm the partition: QoS for both, power under
	// the unguarded budget.
	n := QuietNode(apps, 9)
	if err := n.Apply(p); err != nil {
		t.Fatal(err)
	}
	st := n.Step(1, qps)
	for _, i := range apps.LSIndices() {
		if st.Apps[i].TrueP95 > apps[i].QoSTargetS {
			t.Errorf("service %d violates QoS under %v: p95 %v", i, p[i], st.Apps[i].TrueP95)
		}
	}
	if float64(st.TruePower) > float64(s.Budget)*1.02 {
		t.Errorf("partition %v overloads: %v vs %v", p, st.TruePower, s.Budget)
	}
}

func TestSearcherScalesWithLoad(t *testing.T) {
	apps, s := fixture(t)
	lo, _ := s.Best([]float64{0.2 * apps[0].PeakQPS, 0.2 * apps[1].PeakQPS})
	hi, _ := s.Best([]float64{0.7 * apps[0].PeakQPS, 0.7 * apps[1].PeakQPS})
	loLS := float64(lo[0].Cores)*float64(lo[0].Freq) + float64(lo[1].Cores)*float64(lo[1].Freq)
	hiLS := float64(hi[0].Cores)*float64(hi[0].Freq) + float64(hi[1].Cores)*float64(hi[1].Freq)
	if hiLS <= loLS {
		t.Errorf("LS capacity did not grow with load: %v -> %v", loLS, hiLS)
	}
}

func TestControllerEndToEnd(t *testing.T) {
	apps, s := fixture(t)
	node := NewNode(apps, 13)
	ctrl := NewController(s.Spec, apps, s, s.Budget)

	// Start with everything granted to the first service (the multi-app
	// analogue of Alg. 1 line 1), queried at a safe parked state.
	init := make(Partition, len(apps))
	for i := range init {
		init[i].Freq = s.Spec.FreqMin
	}
	init[0] = hw.Alloc{Cores: s.Spec.Cores, Freq: s.Spec.FreqMax, LLCWays: s.Spec.LLCWays}
	if err := node.Apply(init); err != nil {
		t.Fatal(err)
	}

	const dur = 200
	tr0 := workload.Triangle(0.2, 0.6, dur)
	tr1 := workload.Triangle(0.3, 0.5, dur)
	budget := power.NewBudget(s.Budget)
	var okQ, totQ, beWork float64
	for i := 0; i < dur; i++ {
		tt := float64(i + 1)
		qps := []float64{tr0(tt) * apps[0].PeakQPS, tr1(tt) * apps[1].PeakQPS}
		st := node.Step(tt, qps)
		budget.Observe(st.TruePower)
		for _, li := range apps.LSIndices() {
			okQ += st.Apps[li].QPS * st.Apps[li].QoSFrac
			totQ += st.Apps[li].QPS
		}
		for _, j := range apps.BEIndices() {
			beWork += st.Apps[j].ThroughputUPS
		}
		next := ctrl.Decide(st, qps)
		if err := node.Apply(next); err != nil {
			t.Fatalf("controller emitted invalid partition at t=%v: %v", tt, err)
		}
	}
	qos := okQ / totQ
	if qos < 0.9 {
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

func TestTotalPowerComposition(t *testing.T) {
	apps, s := fixture(t)
	p := Partition{
		{Cores: 5, Freq: 1.8, LLCWays: 5},
		{Cores: 5, Freq: 1.8, LLCWays: 5},
		{Cores: 5, Freq: 1.6, LLCWays: 5},
		{Cores: 5, Freq: 1.6, LLCWays: 5},
	}
	qps := []float64{0.3 * apps[0].PeakQPS, 0.3 * apps[1].PeakQPS}
	pred := float64(s.TotalPowerW(p, qps))
	n := QuietNode(apps, 17)
	if err := n.Apply(p); err != nil {
		t.Fatal(err)
	}
	truth := float64(n.Step(1, qps).TruePower)
	if rel := abs(pred-truth) / truth; rel > 0.12 {
		t.Errorf("power composition off: pred %.1f vs truth %.1f (rel %.3f)", pred, truth, rel)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
