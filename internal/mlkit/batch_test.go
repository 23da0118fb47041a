package mlkit

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// batchModels trains one regressor of every family on the same
// predictor-shaped synthetic data: the five technique regressors plus
// the ensemble models, so the batch/point equivalence property covers
// both the fast paths and the point-API fallback.
func batchModels(tb testing.TB) map[string]Regressor {
	rng := rand.New(rand.NewSource(7))
	const n, d = 400, 4
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()*10 - 5
		}
		X[i] = row
		y[i] = 3*row[0] - 0.5*row[1]*row[2] + math.Sin(row[3]) + rng.NormFloat64()*0.1
	}
	models := map[string]Regressor{
		"lasso":  &Lasso{Lambda: 0.01, Iters: 200},
		"forest": &ForestRegressor{Trees: 12, MaxDepth: 8, Seed: 3},
		"gbm":    &GBMRegressor{Trees: 30, Depth: 4},
	}
	for _, t := range AllTechniques() {
		models[string(t)] = t.NewRegressor(11)
	}
	for name, m := range models {
		if err := m.Fit(X, y); err != nil {
			tb.Fatalf("fit %s: %v", name, err)
		}
	}
	return models
}

func batchQueries(rng *rand.Rand, n int) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		row := make([]float64, 4)
		for j := range row {
			row[j] = rng.Float64()*14 - 7 // includes out-of-hull points
		}
		X[i] = row
	}
	return X
}

// TestPredictBatchEquivalence is the property the batched fast path
// must uphold for every technique: PredictBatch ≡ point-wise Predict,
// bit for bit, including dst reuse across calls.
func TestPredictBatchEquivalence(t *testing.T) {
	queries := batchQueries(rand.New(rand.NewSource(99)), 256)
	var dst []float64
	for name, m := range batchModels(t) {
		dst = PredictBatch(m, queries, dst[:0])
		if len(dst) != len(queries) {
			t.Fatalf("%s: %d results for %d queries", name, len(dst), len(queries))
		}
		for i, x := range queries {
			want := m.Predict(x)
			if math.Float64bits(dst[i]) != math.Float64bits(want) &&
				!(math.IsNaN(dst[i]) && math.IsNaN(want)) {
				t.Fatalf("%s row %d: batch %v (%x) point %v (%x)",
					name, i, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
			}
		}
	}
}

// TestPredictBatchUntrained pins the degenerate-model behavior the
// point API has: untrained lasso/forest answer 0, not a panic.
func TestPredictBatchUntrained(t *testing.T) {
	queries := batchQueries(rand.New(rand.NewSource(1)), 3)
	for name, m := range map[string]Regressor{"lasso": &Lasso{}, "forest": &ForestRegressor{}} {
		out := PredictBatch(m, queries, nil)
		for i, v := range out {
			if want := m.Predict(queries[i]); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("untrained %s row %d: batch %v point %v", name, i, v, want)
			}
		}
	}
}

var (
	fuzzModelsOnce sync.Once
	fuzzModels     map[string]Regressor
)

// FuzzPredictBatch feeds adversarial feature vectors (extreme values,
// NaN, Inf) through every model and checks the batch path never
// diverges from the point path.
func FuzzPredictBatch(f *testing.F) {
	f.Add(0.0, 1.0, -2.5, 3e8)
	f.Add(math.Inf(1), math.Inf(-1), math.NaN(), -0.0)
	f.Add(1e-300, -1e300, 0.5, 42.0)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		fuzzModelsOnce.Do(func() { fuzzModels = batchModels(t) })
		// Rows stay schema-width: the point API (KNN distance loop)
		// requires it, and the batch path inherits that contract.
		X := [][]float64{{a, b, c, d}, {d, c, b, a}, {c, a, d, b}}
		for name, m := range fuzzModels {
			out := PredictBatch(m, X, nil)
			for i, x := range X {
				want := m.Predict(x)
				if math.Float64bits(out[i]) != math.Float64bits(want) &&
					!(math.IsNaN(out[i]) && math.IsNaN(want)) {
					t.Fatalf("%s row %d: batch %v point %v", name, i, out[i], want)
				}
			}
		}
	})
}

// treeBatch fits a regression tree and returns it with 64 queries.
func treeBatch(tb testing.TB) (*TreeRegressor, [][]float64) {
	tb.Helper()
	m := &TreeRegressor{MaxDepth: 14, MinLeaf: 2}
	rng := rand.New(rand.NewSource(7))
	const n, d = 400, 4
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()*10 - 5
		}
		X[i] = row
		y[i] = 3*row[0] - 0.5*row[1] + row[2]*row[3]
	}
	if err := m.Fit(X, y); err != nil {
		tb.Fatal(err)
	}
	return m, batchQueries(rng, 64)
}

// TestPredictBatchAllocFree pins the batched path at zero heap
// allocations once the caller's dst has grown to the batch size.
func TestPredictBatchAllocFree(t *testing.T) {
	m, queries := treeBatch(t)
	var dst []float64
	if allocs := testing.AllocsPerRun(100, func() { dst = PredictBatch(m, queries, dst[:0]) }); allocs != 0 {
		t.Fatalf("PredictBatch allocates %v times per call, want 0", allocs)
	}
}

func BenchmarkPredictBatch(b *testing.B) {
	m, queries := treeBatch(b)
	var dst []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = PredictBatch(m, queries, dst[:0])
	}
}
