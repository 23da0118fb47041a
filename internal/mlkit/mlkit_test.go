package mlkit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthReg builds a noisy nonlinear regression problem resembling the
// predictor's feature space (4 features on different scales).
func synthReg(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		qps := rng.Float64() * 60000
		cores := float64(1 + rng.Intn(20))
		freq := 1.2 + 0.1*float64(rng.Intn(11))
		ways := float64(1 + rng.Intn(20))
		X[i] = []float64{qps, cores, freq, ways}
		y[i] = cores*freq*3 + 20*math.Log1p(ways) - qps/10000 + rng.NormFloat64()*0.8
	}
	return X, y
}

// synthClf builds a separable-with-noise classification problem.
func synthClf(n int, seed int64) ([][]float64, []int) {
	X, raw := synthReg(n, seed)
	y := make([]int, n)
	for i, v := range raw {
		if v > 40 {
			y[i] = 1
		}
	}
	return X, y
}

func TestScaler(t *testing.T) {
	X := [][]float64{{1, 100}, {2, 200}, {3, 300}}
	s := FitScaler(X)
	xs := s.TransformAll(X)
	for j := 0; j < 2; j++ {
		var mean, sd float64
		for _, r := range xs {
			mean += r[j]
		}
		mean /= 3
		for _, r := range xs {
			sd += (r[j] - mean) * (r[j] - mean)
		}
		if math.Abs(mean) > 1e-12 || math.Abs(sd/3-1) > 1e-9 {
			t.Errorf("column %d not standardized: mean %v var %v", j, mean, sd/3)
		}
	}
	// Constant column survives.
	c := FitScaler([][]float64{{5}, {5}, {5}})
	if got := c.Transform([]float64{5})[0]; got != 0 {
		t.Errorf("constant column transform = %v, want 0", got)
	}
}

func TestR2(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if got := R2(y, y); got != 1 {
		t.Errorf("perfect R2 = %v", got)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if got := R2(y, mean); math.Abs(got) > 1e-12 {
		t.Errorf("mean-predictor R2 = %v, want 0", got)
	}
	if got := R2(y, []float64{10, 10, 10, 10}); got >= 0 {
		t.Errorf("bad model R2 = %v, want negative", got)
	}
	if !math.IsNaN(R2(nil, nil)) {
		t.Error("empty R2 should be NaN")
	}
	if got := R2([]float64{3, 3}, []float64{3, 3}); got != 1 {
		t.Errorf("constant-target exact prediction R2 = %v, want 1", got)
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 0, 1, 1}, []int{1, 0, 0, 1}); got != 0.75 {
		t.Errorf("Accuracy = %v, want 0.75", got)
	}
	if !math.IsNaN(Accuracy(nil, nil)) {
		t.Error("empty Accuracy should be NaN")
	}
}

func TestLinearRegressionExactRecovery(t *testing.T) {
	// y = 2a − 3b + 7 exactly.
	X := [][]float64{{1, 1}, {2, 1}, {3, 5}, {4, 2}, {0, 7}, {6, 3}}
	y := make([]float64, len(X))
	for i, r := range X {
		y[i] = 2*r[0] - 3*r[1] + 7
	}
	var m LinearRegression
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	co := m.Coefficients()
	if math.Abs(co[0]-2) > 1e-8 || math.Abs(co[1]+3) > 1e-8 || math.Abs(m.Intercept()-7) > 1e-8 {
		t.Errorf("recovered %v + %v, want [2 -3] + 7", co, m.Intercept())
	}
	if got := m.Predict([]float64{10, 10}); math.Abs(got-(20-30+7)) > 1e-8 {
		t.Errorf("Predict = %v", got)
	}
}

func TestLinearRegressionSingularFallback(t *testing.T) {
	// Duplicate column: XᵀX is singular; ridge fallback must cope.
	X := [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	y := []float64{2, 4, 6, 8}
	var m LinearRegression
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{5, 5}); math.Abs(got-10) > 1e-3 {
		t.Errorf("Predict on collinear fit = %v, want ≈10", got)
	}
}

func TestLogisticRegressionSeparable(t *testing.T) {
	X, y := synthClf(600, 3)
	var m LogisticRegression
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := make([]int, len(y))
	for i, x := range X {
		pred[i] = m.PredictClass(x)
	}
	if acc := Accuracy(y, pred); acc < 0.9 {
		t.Errorf("train accuracy = %v, want ≥0.9", acc)
	}
	p := m.PredictProb(X[0])
	if p < 0 || p > 1 {
		t.Errorf("probability %v outside [0,1]", p)
	}
}

func TestLassoShrinksIrrelevantFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 400
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		relevant := rng.NormFloat64()
		noise1 := rng.NormFloat64()
		noise2 := rng.NormFloat64()
		X[i] = []float64{relevant, noise1, noise2}
		y[i] = 5*relevant + rng.NormFloat64()*0.1
	}
	m := Lasso{Lambda: 0.1}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	co := m.Coefficients()
	if math.Abs(co[0]) < 1 {
		t.Errorf("relevant coefficient %v shrunk too far", co[0])
	}
	if math.Abs(co[1]) > 0.1 || math.Abs(co[2]) > 0.1 {
		t.Errorf("noise coefficients %v not shrunk", co[1:])
	}
	sel, err := SelectFeatures(X, y, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0] != 0 {
		t.Errorf("SelectFeatures = %v, want [0]", sel)
	}
}

func TestLassoPredictsReasonably(t *testing.T) {
	X, y := synthReg(500, 7)
	m := Lasso{Lambda: 0.005}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, len(y))
	for i, x := range X {
		pred[i] = m.Predict(x)
	}
	if r2 := R2(y, pred); r2 < 0.85 {
		t.Errorf("Lasso train R2 = %v", r2)
	}
}

func TestKNNRegressorInterpolates(t *testing.T) {
	X, y := synthReg(1200, 11)
	trainX, trainY := X[:1000], y[:1000]
	testX, testY := X[1000:], y[1000:]
	r2, err := EvaluateRegressor(&KNNRegressor{K: 5}, trainX, trainY, testX, testY)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.9 {
		t.Errorf("KNN test R2 = %v, want ≥0.9", r2)
	}
}

func TestKNNClassifier(t *testing.T) {
	X, y := synthClf(1200, 13)
	acc, err := EvaluateClassifier(&KNNClassifier{K: 5}, X[:1000], y[:1000], X[1000:], y[1000:])
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("KNN accuracy = %v, want ≥0.9", acc)
	}
}

func TestKNNExactNeighborRecall(t *testing.T) {
	X := [][]float64{{0}, {1}, {10}}
	y := []float64{5, 7, 100}
	var m KNNRegressor
	m.K = 2
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0.4}); got != 6 {
		t.Errorf("mean of two nearest = %v, want 6", got)
	}
}

func TestTreeRegressorFitsSteps(t *testing.T) {
	// A step function is trees' home turf.
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		v := float64(i) / 10
		X = append(X, []float64{v})
		if v < 10 {
			y = append(y, 1)
		} else {
			y = append(y, 9)
		}
	}
	var m TreeRegressor
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{3}); got != 1 {
		t.Errorf("left leaf = %v, want 1", got)
	}
	if got := m.Predict([]float64{15}); got != 9 {
		t.Errorf("right leaf = %v, want 9", got)
	}
}

func TestTreeRegressorGeneralizes(t *testing.T) {
	X, y := synthReg(1500, 17)
	r2, err := EvaluateRegressor(&TreeRegressor{}, X[:1200], y[:1200], X[1200:], y[1200:])
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.85 {
		t.Errorf("tree test R2 = %v, want ≥0.85", r2)
	}
}

func TestTreeClassifier(t *testing.T) {
	X, y := synthClf(1500, 19)
	acc, err := EvaluateClassifier(&TreeClassifier{}, X[:1200], y[:1200], X[1200:], y[1200:])
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.92 {
		t.Errorf("tree accuracy = %v, want ≥0.92", acc)
	}
}

func TestTreeDepthLimit(t *testing.T) {
	X, y := synthReg(400, 23)
	shallow := &TreeRegressor{MaxDepth: 1}
	if err := shallow.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// A depth-1 tree has at most two distinct outputs.
	vals := map[float64]bool{}
	for _, x := range X {
		vals[shallow.Predict(x)] = true
	}
	if len(vals) > 2 {
		t.Errorf("depth-1 tree produced %d distinct outputs", len(vals))
	}
}

func TestSVMClassifierSeparable(t *testing.T) {
	X, y := synthClf(1200, 29)
	acc, err := EvaluateClassifier(&SVMClassifier{Seed: 1}, X[:1000], y[:1000], X[1000:], y[1000:])
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.88 {
		t.Errorf("SVM accuracy = %v, want ≥0.88", acc)
	}
}

func TestSVRFitsLinearTrend(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var X [][]float64
	var y []float64
	for i := 0; i < 600; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		X = append(X, []float64{a, b})
		y = append(y, 3*a-2*b+1+rng.NormFloat64()*0.2)
	}
	r2, err := EvaluateRegressor(&SVR{Seed: 2}, X[:500], y[:500], X[500:], y[500:])
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.95 {
		t.Errorf("SVR test R2 = %v, want ≥0.95", r2)
	}
}

func TestMLPRegressorNonlinear(t *testing.T) {
	X, y := synthReg(1500, 37)
	r2, err := EvaluateRegressor(&MLPRegressor{Seed: 3}, X[:1200], y[:1200], X[1200:], y[1200:])
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.9 {
		t.Errorf("MLP test R2 = %v, want ≥0.9", r2)
	}
}

func TestMLPClassifier(t *testing.T) {
	X, y := synthClf(1500, 41)
	acc, err := EvaluateClassifier(&MLPClassifier{Seed: 4}, X[:1200], y[:1200], X[1200:], y[1200:])
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("MLP accuracy = %v, want ≥0.9", acc)
	}
}

func TestMLPDeterministicGivenSeed(t *testing.T) {
	X, y := synthReg(300, 43)
	a := &MLPRegressor{Seed: 9, Epochs: 50}
	b := &MLPRegressor{Seed: 9, Epochs: 50}
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if a.Predict(X[i]) != b.Predict(X[i]) {
			t.Fatal("same seed produced different networks")
		}
	}
}

func TestAllTechniquesTrainOnPredictorShapedData(t *testing.T) {
	Xr, yr := synthReg(900, 47)
	Xc, yc := synthClf(900, 53)
	for _, tech := range AllTechniques() {
		tech := tech
		t.Run(string(tech), func(t *testing.T) {
			r2, err := EvaluateRegressor(tech.NewRegressor(1), Xr[:700], yr[:700], Xr[700:], yr[700:])
			if err != nil {
				t.Fatalf("regressor: %v", err)
			}
			if r2 < 0.5 {
				t.Errorf("regressor R2 = %v, want ≥0.5", r2)
			}
			acc, err := EvaluateClassifier(tech.NewClassifier(1), Xc[:700], yc[:700], Xc[700:], yc[700:])
			if err != nil {
				t.Fatalf("classifier: %v", err)
			}
			if acc < 0.8 {
				t.Errorf("classifier accuracy = %v, want ≥0.8", acc)
			}
		})
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	regs := []Regressor{
		&LinearRegression{}, &Lasso{}, &KNNRegressor{}, &TreeRegressor{}, &SVR{}, &MLPRegressor{Epochs: 1},
	}
	for _, m := range regs {
		if err := m.Fit(nil, nil); err == nil {
			t.Errorf("%T accepted empty training set", m)
		}
		if err := m.Fit([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
			t.Errorf("%T accepted ragged matrix", m)
		}
	}
	clfs := []Classifier{
		&LogisticRegression{}, &KNNClassifier{}, &TreeClassifier{}, &SVMClassifier{}, &MLPClassifier{Epochs: 1},
	}
	for _, m := range clfs {
		if err := m.Fit(nil, nil); err == nil {
			t.Errorf("%T accepted empty training set", m)
		}
		if err := m.Fit([][]float64{{1}, {2}}, []int{0, 3}); err == nil {
			t.Errorf("%T accepted non-binary labels", m)
		}
	}
}

func TestUnknownTechniquePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown technique did not panic")
		}
	}()
	Technique("XGB").NewRegressor(0)
}

func TestSolveLinearProperty(t *testing.T) {
	// Random well-conditioned diagonal-dominant systems round-trip.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		a := make([][]float64, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range a {
			a[i] = make([]float64, n+1)
			for j := 0; j < n; j++ {
				a[i][j] = rng.NormFloat64()
			}
			a[i][i] += float64(n) * 3 // dominance
			for j := 0; j < n; j++ {
				a[i][n] += a[i][j] * x[j]
			}
		}
		got, ok := solveLinear(a)
		if !ok {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
