package models

import (
	"testing"

	"sturgeon/internal/hw"
	"sturgeon/internal/mlkit"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

// smallOpts keeps test sweeps fast while remaining statistically useful.
var smallOpts = CollectOptions{Samples: 500, IntervalsPerSample: 2, Seed: 7}

func TestCollectLSShapes(t *testing.T) {
	perf, pow, lat := CollectLS(workload.Memcached(), smallOpts)
	if perf.Len() != smallOpts.Samples || pow.Len() != smallOpts.Samples {
		t.Fatalf("collected %d/%d samples, want %d", perf.Len(), pow.Len(), smallOpts.Samples)
	}
	if err := perf.Validate(); err != nil {
		t.Fatal(err)
	}
	ones, zeros := 0, 0
	for _, y := range perf.Y {
		if y == 1 {
			ones++
		} else if y == 0 {
			zeros++
		} else {
			t.Fatalf("non-binary feasibility label %v", y)
		}
	}
	// The random sweep must see both feasible and infeasible points,
	// otherwise the classifier has nothing to learn.
	if ones < perf.Len()/10 || zeros < perf.Len()/10 {
		t.Errorf("unbalanced labels: %d feasible, %d infeasible", ones, zeros)
	}
	for _, y := range pow.Y {
		if y < 60 || y > 160 {
			t.Fatalf("implausible power label %v", y)
		}
	}
	if lat.Len() != smallOpts.Samples {
		t.Fatalf("latency dataset has %d samples", lat.Len())
	}
	for _, y := range lat.Y {
		if y < -6 || y > 2 {
			t.Fatalf("implausible log10 latency label %v", y)
		}
	}
}

func TestCollectBEShapes(t *testing.T) {
	thpt, pow := CollectBE(workload.Raytrace(), smallOpts)
	if thpt.Len() != smallOpts.Samples || pow.Len() != smallOpts.Samples {
		t.Fatalf("collected %d/%d samples", thpt.Len(), pow.Len())
	}
	for i, y := range thpt.Y {
		if y <= 0 {
			t.Fatalf("non-positive throughput label %v at %d", y, i)
		}
	}
	for _, y := range pow.Y {
		if y < 0 || y > 80 {
			t.Fatalf("implausible incremental power label %v", y)
		}
	}
	// Input level must vary (it is a model feature).
	levels := map[float64]bool{}
	for _, x := range thpt.X {
		levels[x[0]] = true
	}
	if len(levels) < 4 {
		t.Errorf("input levels sampled: %d distinct, want ≥4", len(levels))
	}
}

func TestTrainedPredictorAgreesWithPhysics(t *testing.T) {
	ls, be := workload.Memcached(), workload.Raytrace()
	pred, err := Train(ls, be, TrainOptions{Collect: CollectOptions{Samples: 900, IntervalsPerSample: 2, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}

	// Generous allocation at low load: clearly feasible.
	if !pred.QoSOK(hw.Alloc{Cores: 16, Freq: 2.2, LLCWays: 16}, 0.2*ls.PeakQPS) {
		t.Error("predictor rejects a clearly feasible allocation")
	}
	// Starved allocation at high load: clearly infeasible.
	if pred.QoSOK(hw.Alloc{Cores: 1, Freq: 1.2, LLCWays: 1}, 0.8*ls.PeakQPS) {
		t.Error("predictor accepts a clearly infeasible allocation")
	}

	// Throughput ordering: more resources, more predicted throughput.
	small := pred.Throughput(hw.Alloc{Cores: 4, Freq: 1.4, LLCWays: 4})
	big := pred.Throughput(hw.Alloc{Cores: 16, Freq: 2.0, LLCWays: 16})
	if big <= small {
		t.Errorf("predicted throughput not ordered: %v <= %v", big, small)
	}

	// Power prediction within a few percent of physics for a co-location.
	node := sim.QuietNode(ls, be, 3)
	cfg := hw.Config{
		LS: hw.Alloc{Cores: 6, Freq: 1.8, LLCWays: 8},
		BE: hw.Alloc{Cores: 14, Freq: 1.6, LLCWays: 12},
	}
	if err := node.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	qps := 0.3 * ls.PeakQPS
	truth := float64(node.Step(1, qps).TruePower)
	got := float64(pred.PowerW(cfg, qps))
	if rel := abs(got-truth) / truth; rel > 0.08 {
		t.Errorf("power prediction %v vs physics %v (rel %.3f)", got, truth, rel)
	}

	if pred.Queries() == 0 {
		t.Error("query counter did not advance")
	}
}

func TestPredictorEdgeAllocations(t *testing.T) {
	pred, err := Train(workload.Xapian(), workload.Swaptions(),
		TrainOptions{Collect: smallOpts})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Throughput(hw.Alloc{Cores: 0}) != 0 {
		t.Error("zero-core BE throughput not 0")
	}
	if pred.QoSOK(hw.Alloc{Cores: 0}, 100) {
		t.Error("zero-core LS allocation accepted under load")
	}
	if !pred.QoSOK(hw.Alloc{Cores: 0}, 0) {
		t.Error("zero-core LS allocation rejected with no load")
	}
	// Zero-core BE adds no power.
	cfgNoBE := hw.Config{LS: hw.Alloc{Cores: 8, Freq: 1.8, LLCWays: 8}}
	cfgBE := cfgNoBE
	cfgBE.BE = hw.Alloc{Cores: 10, Freq: 2.2, LLCWays: 10}
	if pred.PowerW(cfgBE, 500) <= pred.PowerW(cfgNoBE, 500) {
		t.Error("BE allocation did not add predicted power")
	}
}

func TestFeasibleCombinesQoSAndPower(t *testing.T) {
	ls, be := workload.Memcached(), workload.Swaptions()
	pred, err := Train(ls, be, TrainOptions{Collect: CollectOptions{Samples: 900, IntervalsPerSample: 2, Seed: 13}})
	if err != nil {
		t.Fatal(err)
	}
	budget := sim.LSPeakPower(hw.DefaultSpec(), sim.QuietNode(ls, be, 1).PowerParams,
		sim.QuietNode(ls, be, 1).Bus, ls)
	qps := 0.2 * ls.PeakQPS
	// Power-unaware configuration: QoS fine, power overloaded.
	hot := hw.Complement(hw.DefaultSpec(), hw.Alloc{Cores: 6, Freq: 1.8, LLCWays: 8}, 2.2)
	if pred.Feasible(hot, qps, budget) {
		t.Error("predictor accepted the Fig. 2 overload configuration")
	}
	// The same shape with a throttled BE should pass.
	cool := hot
	cool.BE.Freq = 1.4
	if !pred.Feasible(cool, qps, budget) {
		t.Error("predictor rejected a feasible throttled configuration")
	}
}

func TestCompareTechniquesOrdering(t *testing.T) {
	ls := workload.Memcached()
	perf, pow, _ := CollectLS(ls, CollectOptions{Samples: 900, IntervalsPerSample: 2, Seed: 17})

	clf, err := CompareClassification(perf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(clf) != 5 {
		t.Fatalf("got %d classification scores", len(clf))
	}
	for _, s := range clf {
		if s.Value < 0.6 || s.Value > 1 {
			t.Errorf("%s accuracy %v implausible", s.Technique, s.Value)
		}
	}
	// The paper's Fig. 6 finding: the tree family beats the linear
	// boundary model on LS feasibility — the bursty-traffic feasibility
	// surface with its hyper-threading kink rewards axis-aligned splits.
	byName := map[mlkit.Technique]float64{}
	for _, s := range clf {
		byName[s.Technique] = s.Value
	}
	if byName[mlkit.DT] <= byName[mlkit.LR] {
		t.Errorf("DT (%.3f) not above LR (%.3f) on LS feasibility", byName[mlkit.DT], byName[mlkit.LR])
	}
	if best := Best(clf); best.Value < 0.94 {
		t.Errorf("best feasibility model %s = %.3f, want ≥0.94", best.Technique, best.Value)
	}

	reg, err := CompareRegression(pow, 1)
	if err != nil {
		t.Fatal(err)
	}
	regBy := map[mlkit.Technique]float64{}
	for _, s := range reg {
		regBy[s.Technique] = s.Value
	}
	// Power is superlinear in frequency; KNN must beat linear regression
	// (the paper's Fig. 7 finding).
	if regBy[mlkit.KNN] <= regBy[mlkit.LR] {
		t.Errorf("KNN (%.3f) not above LR (%.3f) on power", regBy[mlkit.KNN], regBy[mlkit.LR])
	}
	if regBy[mlkit.KNN] < 0.9 {
		t.Errorf("KNN power R² = %.3f, want ≥0.9", regBy[mlkit.KNN])
	}
	best := Best(reg)
	if best.Value < regBy[mlkit.LR] {
		t.Error("Best returned a non-maximal score")
	}
}

func TestLassoPicksThePaperFeatures(t *testing.T) {
	// §V-A: Lasso selects input size, cores, frequency and ways. Augment
	// the sweep with two irrelevant telemetry columns and verify they are
	// ranked below the four real features for BE throughput.
	thpt, _ := CollectBE(workload.Ferret(), CollectOptions{Samples: 700, IntervalsPerSample: 2, Seed: 23})
	aug := make([][]float64, thpt.Len())
	for i, row := range thpt.X {
		// Deterministic pseudo-noise columns (node id, time of day).
		nodeID := float64(i % 7)
		timeOfDay := float64((i * 37) % 24)
		aug[i] = append(append([]float64(nil), row...), nodeID, timeOfDay)
	}
	real := len(BEFeatureNames)
	sel, err := mlkit.SelectFeatures(aug, thpt.Y, 0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range sel {
		if idx >= real {
			t.Errorf("Lasso selected irrelevant feature %d; selection %v", idx, sel)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestPerAppBundles(t *testing.T) {
	ls, be := workload.Memcached(), workload.Swaptions()
	lds := SweepLS(ls, smallOpts)
	bds := SweepBE(be, smallOpts)

	lm, err := FitLS(ls, lds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !lm.QoSOK(hw.Alloc{Cores: 18, Freq: 2.2, LLCWays: 18}, 0.2*ls.PeakQPS) {
		t.Error("LS bundle rejects a generous allocation")
	}
	if lm.QoSOK(hw.Alloc{Cores: 1, Freq: 1.2, LLCWays: 1}, 0.9*ls.PeakQPS) {
		t.Error("LS bundle accepts a starved allocation")
	}
	if lm.QoSOK(hw.Alloc{}, 100) {
		t.Error("zero-core allocation accepted under load")
	}
	pw := lm.LSPowerW(hw.Alloc{Cores: 8, Freq: 1.8, LLCWays: 8}, 0.3*ls.PeakQPS)
	if pw < 60 || pw > 160 {
		t.Errorf("implausible node power %v", pw)
	}

	bm, err := FitBE(be, bds, 1)
	if err != nil {
		t.Fatal(err)
	}
	small := bm.Throughput(hw.Alloc{Cores: 4, Freq: 1.4, LLCWays: 4})
	big := bm.Throughput(hw.Alloc{Cores: 16, Freq: 2.0, LLCWays: 16})
	if !(0 < small && small < big) {
		t.Errorf("throughput ordering broken: %v vs %v", small, big)
	}
	if bm.Throughput(hw.Alloc{}) != 0 || bm.BEPowerW(hw.Alloc{}) != 0 {
		t.Error("zero-core BE allocation should predict zeros")
	}
	inc := bm.BEPowerW(hw.Alloc{Cores: 16, Freq: 2.2, LLCWays: 14})
	if inc <= 0 || inc > 80 {
		t.Errorf("implausible incremental power %v", inc)
	}
}

func TestFitErrorsOnEmptyDatasets(t *testing.T) {
	ls, be := workload.Memcached(), workload.Swaptions()
	if _, err := FitLS(ls, LSDatasets{}, 1); err == nil {
		t.Error("empty LS datasets accepted")
	}
	if _, err := FitBE(be, BEDatasets{}, 1); err == nil {
		t.Error("empty BE datasets accepted")
	}
}

func TestTrainAutoSelect(t *testing.T) {
	ls, be := workload.Memcached(), workload.Swaptions()
	pred, err := Train(ls, be, TrainOptions{Collect: smallOpts, AutoSelect: true})
	if err != nil {
		t.Fatal(err)
	}
	// The auto-selected predictor must still behave sensibly.
	if !pred.QoSOK(hw.Alloc{Cores: 18, Freq: 2.2, LLCWays: 18}, 0.2*ls.PeakQPS) {
		t.Error("auto-selected predictor rejects a generous allocation")
	}
	if pred.Throughput(hw.Alloc{Cores: 16, Freq: 2.0, LLCWays: 16}) <= 0 {
		t.Error("auto-selected predictor predicts no throughput")
	}
}

func TestTrainTechniqueOverrides(t *testing.T) {
	ls, be := workload.Memcached(), workload.Swaptions()
	pred, err := Train(ls, be, TrainOptions{
		Collect:        smallOpts,
		LSFeasibleTech: "MLP", LSPowerTech: "DT", BEThptTech: "KNN", BEPowerTech: "LR",
	})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Throughput(hw.Alloc{Cores: 10, Freq: 1.8, LLCWays: 10}) <= 0 {
		t.Error("override-trained predictor predicts no throughput")
	}
}
