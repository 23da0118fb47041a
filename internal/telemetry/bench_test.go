package telemetry

import "testing"

// TestP2ObserveAllocFree pins the bootstrapped estimator's Observe at
// zero heap allocations: it runs once per served query.
func TestP2ObserveAllocFree(t *testing.T) {
	e := NewP2(0.95)
	for i := 0; i < 5; i++ {
		e.Observe(float64(i))
	}
	x := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		e.Observe(x)
		x += 0.001
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v times per call, want 0", allocs)
	}
}

func BenchmarkP2Observe(b *testing.B) {
	e := NewP2(0.95)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Observe(float64(i%997) * 0.001)
	}
}

func BenchmarkWindowQuantile(b *testing.B) {
	w := NewWindow(128)
	for i := 0; i < 128; i++ {
		w.Observe(float64(i * 7 % 101))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(float64(i % 113))
		w.Quantile(0.95)
	}
}
