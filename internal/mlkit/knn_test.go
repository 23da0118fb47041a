package mlkit

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"sturgeon/internal/jsonio"
)

// sortNeighbors is the reference neighbour search: distances to every
// training row, one full sort by (distance, index), the first k read
// off. The bounded top-k selection in knn.go must reproduce it exactly.
func sortNeighbors(b *knnBase, x []float64) []int {
	q := b.scaler.Transform(x)
	type ds struct {
		d   float64
		idx int
	}
	all := make([]ds, len(b.xs))
	for i, row := range b.xs {
		d := 0.0
		for j := range row {
			dv := row[j] - q[j]
			d += dv * dv
		}
		all[i] = ds{d, i}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].idx < all[j].idx
	})
	out := make([]int, b.k)
	for i := range out {
		out[i] = all[i].idx
	}
	return out
}

func oraclePredict(m *KNNRegressor, x []float64) float64 {
	sum := 0.0
	nb := sortNeighbors(&m.base, x)
	for _, i := range nb {
		sum += m.y[i]
	}
	return sum / float64(len(nb))
}

func oraclePredictClass(m *KNNClassifier, x []float64) int {
	ones := 0
	nb := sortNeighbors(&m.base, x)
	for _, i := range nb {
		ones += m.y[i]
	}
	if 2*ones >= len(nb) {
		return 1
	}
	return 0
}

// knnData draws n training rows of the given width. With grid set every
// feature is a small integer, so many distances tie exactly; with dup
// set, about a third of the rows repeat an earlier row.
func knnData(rng *rand.Rand, n, width int, grid, dup bool) ([][]float64, []float64, []int) {
	X := make([][]float64, n)
	yf := make([]float64, n)
	yi := make([]int, n)
	for i := range X {
		if dup && i > 0 && rng.Intn(3) == 0 {
			X[i] = append([]float64(nil), X[rng.Intn(i)]...)
		} else {
			X[i] = make([]float64, width)
			for j := range X[i] {
				if grid {
					X[i][j] = float64(rng.Intn(4))
				} else {
					X[i][j] = rng.NormFloat64() * float64(1+j)
				}
			}
		}
		yf[i] = rng.NormFloat64()
		yi[i] = rng.Intn(2)
	}
	return X, yf, yi
}

// FuzzKNNMatchesSortOracle checks the bounded top-k selection against
// the full-sort reference on tie-heavy, duplicated and continuous data,
// for k = 1, 5, k ≥ n and k above the stack capacity, and query widths
// on both sides of it: Predict must agree to the bit, PredictClass
// exactly.
func FuzzKNNMatchesSortOracle(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(1), uint8(4), true, true)
	f.Add(int64(2), uint8(60), uint8(5), uint8(5), true, false)
	f.Add(int64(3), uint8(60), uint8(5), uint8(3), false, true)
	f.Add(int64(4), uint8(7), uint8(12), uint8(2), true, true)    // k ≥ n
	f.Add(int64(5), uint8(90), uint8(24), uint8(4), true, true)   // k > knnStack
	f.Add(int64(6), uint8(50), uint8(5), uint8(20), false, false) // width > knnStack
	f.Add(int64(7), uint8(200), uint8(40), uint8(18), true, true) // both
	f.Fuzz(func(t *testing.T, seed int64, n, k, width uint8, grid, dup bool) {
		rows, w := 1+int(n), 1+int(width)%24
		rng := rand.New(rand.NewSource(seed))
		X, yf, yi := knnData(rng, rows, w, grid, dup)
		reg := &KNNRegressor{K: int(k)}
		if err := reg.Fit(X, yf); err != nil {
			t.Fatal(err)
		}
		clf := &KNNClassifier{K: int(k)}
		if err := clf.Fit(X, yi); err != nil {
			t.Fatal(err)
		}
		queries := append([][]float64(nil), X[:min(rows, 8)]...)
		Q, _, _ := knnData(rng, 8, w, grid, false)
		queries = append(queries, Q...)
		for qi, x := range queries {
			if got, want := reg.Predict(x), oraclePredict(reg, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("query %d (k=%d n=%d w=%d): Predict %v, sort oracle %v", qi, reg.base.k, rows, w, got, want)
			}
			if got, want := clf.PredictClass(x), oraclePredictClass(clf, x); got != want {
				t.Fatalf("query %d (k=%d n=%d w=%d): PredictClass %d, sort oracle %d", qi, clf.base.k, rows, w, got, want)
			}
		}
	})
}

// TestKNNPredictAllocFree pins point inference at zero heap allocations
// while K and the query width fit the stack scratch.
func TestKNNPredictAllocFree(t *testing.T) {
	for _, k := range []int{1, 5, knnStack} {
		rng := rand.New(rand.NewSource(int64(k)))
		X, yf, yi := knnData(rng, 300, knnStack, false, false)
		reg := &KNNRegressor{K: k}
		if err := reg.Fit(X, yf); err != nil {
			t.Fatal(err)
		}
		clf := &KNNClassifier{K: k}
		if err := clf.Fit(X, yi); err != nil {
			t.Fatal(err)
		}
		x := X[17]
		if allocs := testing.AllocsPerRun(100, func() { reg.Predict(x) }); allocs != 0 {
			t.Errorf("K=%d: KNNRegressor.Predict allocates %v times per call, want 0", k, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { clf.PredictClass(x) }); allocs != 0 {
			t.Errorf("K=%d: KNNClassifier.PredictClass allocates %v times per call, want 0", k, allocs)
		}
	}
}

// TestKNNPredictConcurrent shares one fitted regressor across goroutines
// (as the Fig. 9/10 workers do) and requires every answer bit-identical
// to the serial one.
func TestKNNPredictConcurrent(t *testing.T) {
	X, y := synthReg(800, 11)
	m := &KNNRegressor{K: 5}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	queries, _ := synthReg(200, 12)
	want := make([]uint64, len(queries))
	for i, x := range queries {
		want[i] = math.Float64bits(m.Predict(x))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i := range queries {
					i := (i + 25*g) % len(queries)
					if got := math.Float64bits(m.Predict(queries[i])); got != want[i] {
						errs <- "goroutine diverged from the serial answer"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// encodeKNN wraps a hand-built KNN snapshot in a model envelope.
func encodeKNN(t *testing.T, kind string, s knnSnap) *bytes.Buffer {
	t.Helper()
	blob, err := encodePayload(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jsonio.Encode(&buf, &envelope{Schema: EnvelopeSchema, Kind: kind, Blob: blob}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestLoadRejectsInvalidKNNSnapshot gives Load one snapshot per broken
// invariant; each used to load and then fail at prediction time.
func TestLoadRejectsInvalidKNNSnapshot(t *testing.T) {
	valid := func() knnSnap {
		return knnSnap{
			K:      2,
			Scaler: &scalerSnap{Mean: []float64{0, 0}, SD: []float64{1, 1}},
			XS:     [][]float64{{0, 1}, {1, 0}, {1, 1}},
			YF:     []float64{1, 2, 3},
			YI:     []int{0, 1, 1},
		}
	}
	for _, kind := range []string{"knn-reg", "knn-clf"} {
		if _, err := Load(encodeKNN(t, kind, valid())); err != nil {
			t.Fatalf("%s: valid snapshot rejected: %v", kind, err)
		}
	}
	cases := []struct {
		name, kind, want string
		edit             func(*knnSnap)
	}{
		{"K zero", "knn-reg", "K = 0", func(s *knnSnap) { s.K = 0 }},
		{"K negative", "knn-clf", "K = -3", func(s *knnSnap) { s.K = -3 }},
		{"K above rows", "knn-reg", "exceeds", func(s *knnSnap) { s.K = 4 }},
		{"regressor targets short", "knn-reg", "2 targets for 3", func(s *knnSnap) { s.YF = s.YF[:2] }},
		{"classifier labels long", "knn-clf", "4 targets for 3", func(s *knnSnap) { s.YI = append(s.YI, 0) }},
		{"row narrower than scaler", "knn-reg", "row 1 has width 1", func(s *knnSnap) { s.XS[1] = s.XS[1][:1] }},
		{"row wider than scaler", "knn-clf", "row 2 has width 3", func(s *knnSnap) { s.XS[2] = append(s.XS[2], 5) }},
		{"no scaler", "knn-reg", "scaler", func(s *knnSnap) { s.Scaler = nil }},
		{"scaler mean and sd differ", "knn-clf", "scaler", func(s *knnSnap) { s.Scaler.SD = s.Scaler.SD[:1] }},
		{"non-binary label", "knn-clf", "not binary", func(s *knnSnap) { s.YI[0] = 2 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := valid()
			c.edit(&s)
			m, err := Load(encodeKNN(t, c.kind, s))
			if err == nil {
				t.Fatalf("invalid snapshot loaded as %T", m)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
