package sim

import (
	"testing"

	"sturgeon/internal/hw"
	"sturgeon/internal/workload"
)

// stepNode returns a running node with a fixed co-location split. With
// cached false the latency cache is off, so every step pays the full
// analytic solve — the worst case a fleet node can hit.
func stepNode(tb testing.TB, cached bool) *Node {
	tb.Helper()
	n := NewNode(workload.Memcached(), workload.Raytrace(), 1)
	if !cached {
		n.Latency = nil
	}
	if err := n.Apply(hw.Config{
		LS: hw.Alloc{Cores: 8, Freq: 1.8, LLCWays: 8},
		BE: hw.Alloc{Cores: 12, Freq: 1.6, LLCWays: 12},
	}); err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestNodeStepAllocFree pins the per-interval step of an already-running
// node at zero heap allocations, with and without the latency cache.
func TestNodeStepAllocFree(t *testing.T) {
	for _, cached := range []bool{true, false} {
		n := stepNode(t, cached)
		now := 0.0
		allocs := testing.AllocsPerRun(100, func() {
			n.Step(now, 20000)
			now++
		})
		if allocs != 0 {
			t.Errorf("cached=%v: Step allocates %v times per call, want 0", cached, allocs)
		}
	}
}

func BenchmarkNodeStep(b *testing.B) {
	n := stepNode(b, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Step(float64(i), 20000)
	}
}

func BenchmarkNodeStepUncached(b *testing.B) {
	n := stepNode(b, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Step(float64(i), 20000)
	}
}

func BenchmarkLSPeakPower(b *testing.B) {
	n := QuietNode(workload.Memcached(), workload.Raytrace(), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LSPeakPower(n.Spec, n.PowerParams, n.Bus, n.LSProfile)
	}
}
