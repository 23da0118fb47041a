package telemetry

import "testing"

// TestWindowWrapAround pushes several full eviction cycles through a
// small window and checks quantiles, mean and extrema see only the
// retained suffix — the ring indices must line up across wraps.
func TestWindowWrapAround(t *testing.T) {
	w := NewWindow(8)
	for i := 1; i <= 20; i++ { // retains 13..20 after 2.5 laps
		w.Observe(float64(i))
	}
	if w.Len() != 8 {
		t.Fatalf("Len = %d after wrap, want 8", w.Len())
	}
	if lo := w.Quantile(0); lo != 13 {
		t.Errorf("min after wrap = %v, want 13", lo)
	}
	if hi := w.Quantile(1); hi != 20 {
		t.Errorf("max after wrap = %v, want 20", hi)
	}
	if m := w.Mean(); m != 16.5 {
		t.Errorf("mean after wrap = %v, want 16.5", m)
	}
	if med := w.Quantile(0.5); med != 16.5 {
		t.Errorf("median after wrap = %v, want 16.5", med)
	}
	// A third full lap with a constant: the whole retained window must be
	// that constant regardless of where next points.
	for i := 0; i < 8; i++ {
		w.Observe(42)
	}
	if w.Quantile(0) != 42 || w.Quantile(1) != 42 || w.Mean() != 42 {
		t.Errorf("constant lap leaked stale samples: min %v max %v mean %v",
			w.Quantile(0), w.Quantile(1), w.Mean())
	}
	// Reset then partial refill: quantiles see only the fresh samples.
	w.Reset()
	w.Observe(5)
	w.Observe(9)
	if w.Len() != 2 || w.Quantile(1) != 9 {
		t.Errorf("post-reset window wrong: len %d max %v", w.Len(), w.Quantile(1))
	}
}
