package telemetry

import "testing"

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
