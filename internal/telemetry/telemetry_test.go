package telemetry

import (
	"math"
	"math/rand"
	"testing"
)

func TestWindowQuantileAndEviction(t *testing.T) {
	w := NewWindow(5)
	for i := 1; i <= 5; i++ {
		w.Observe(float64(i))
	}
	if got := w.Quantile(0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	// Push two more: window should hold {3,4,5,6,7}.
	w.Observe(6)
	w.Observe(7)
	if got := w.Quantile(0); got != 3 {
		t.Errorf("min after eviction = %v, want 3", got)
	}
	if got := w.Quantile(1); got != 7 {
		t.Errorf("max after eviction = %v, want 7", got)
	}
	if got := w.Mean(); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
	if got := w.Max(); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if w.Len() != 5 {
		t.Errorf("Len = %d, want 5", w.Len())
	}
}

func TestWindowEmptyAndReset(t *testing.T) {
	w := NewWindow(3)
	if !math.IsNaN(w.Quantile(0.5)) || !math.IsNaN(w.Mean()) || !math.IsNaN(w.Max()) {
		t.Error("empty window should report NaN")
	}
	w.Observe(1)
	w.Reset()
	if w.Len() != 0 {
		t.Error("Reset did not clear")
	}
	// Zero/negative capacity behaves as capacity 1.
	w1 := NewWindow(0)
	w1.Observe(4)
	w1.Observe(9)
	if got := w1.Quantile(0.5); got != 9 {
		t.Errorf("cap-0 window kept %v, want latest 9", got)
	}
}

func TestWindowInterpolatedQuantile(t *testing.T) {
	w := NewWindow(4)
	for _, v := range []float64{1, 2, 3, 4} {
		w.Observe(v)
	}
	if got := w.Quantile(0.5); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("interpolated median = %v, want 2.5", got)
	}
}

func TestRecorderAndDataset(t *testing.T) {
	r := NewRecorder("qps", "cores", "freq", "ways")
	if err := r.Add([]float64{1000, 4, 1.6, 6}, 0.002); err != nil {
		t.Fatal(err)
	}
	if err := r.Add([]float64{1, 2, 3}, 0); err == nil {
		t.Error("schema mismatch accepted")
	}
	for i := 0; i < 99; i++ {
		_ = r.Add([]float64{float64(i), 1, 2, 3}, float64(i))
	}
	d := r.Dataset()
	if d.Len() != 100 || r.Len() != 100 {
		t.Fatalf("dataset len = %d, want 100", d.Len())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	train, test := d.Split(0.2, rand.New(rand.NewSource(1)))
	if train.Len() != 80 || test.Len() != 20 {
		t.Errorf("split = %d/%d, want 80/20", train.Len(), test.Len())
	}
	// No overlap and full coverage.
	seen := map[float64]bool{}
	for _, y := range append(train.Y, test.Y...) {
		if seen[y] {
			t.Fatalf("duplicate sample %v after split", y)
		}
		seen[y] = true
	}
	if len(seen) != 100 {
		t.Errorf("split lost samples: %d", len(seen))
	}
}

func TestDatasetValidateCatchesRagged(t *testing.T) {
	d := Dataset{X: [][]float64{{1, 2}, {3}}, Y: []float64{1, 2}}
	if d.Validate() == nil {
		t.Error("ragged dataset accepted")
	}
	d2 := Dataset{X: [][]float64{{1}}, Y: []float64{}}
	if d2.Validate() == nil {
		t.Error("mismatched lengths accepted")
	}
}
