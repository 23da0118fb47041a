package placement

import (
	"testing"

	"sturgeon/internal/core"
	"sturgeon/internal/hw"
	"sturgeon/internal/queueing"
	"sturgeon/internal/workload"
)

// warmScorer returns a scorer whose memo already holds the answer for
// one (job predictor, QPS, 104 W cap) query, with that query's
// predictor and QPS.
func warmScorer() (*Scorer, core.Predictor, float64) {
	sc := NewScorer(hw.DefaultSpec())
	m := physicsFor(workload.Blackscholes(), queueing.NewCache())
	qps := 0.45 * workload.Memcached().PeakQPS
	sc.Best(m, qps, 104)
	return sc, m, qps
}

// TestScorerBestAllocFree pins a memoized scorer query — what the
// planner issues per (job, node) pair in a steady epoch — at zero heap
// allocations.
func TestScorerBestAllocFree(t *testing.T) {
	sc, m, qps := warmScorer()
	if allocs := testing.AllocsPerRun(100, func() { sc.Best(m, qps, 104) }); allocs != 0 {
		t.Fatalf("memoized Best allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkScorerBest measures one memoized scorer query — the unit of
// work the planner issues per (job, node) pair every epoch.
func BenchmarkScorerBest(b *testing.B) {
	sc, m, qps := warmScorer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Best(m, qps, 104)
	}
}

// BenchmarkScorerSweep measures a cold full-grid sweep (11×11 DVFS
// pairs through the physics predictor, its latency cache warm): a fresh
// scorer per iteration has an empty memo.
func BenchmarkScorerSweep(b *testing.B) {
	m := physicsFor(workload.Blackscholes(), queueing.NewCache())
	qps := 0.45 * workload.Memcached().PeakQPS
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewScorer(hw.DefaultSpec()).Best(m, qps, 104)
	}
}

// BenchmarkSolve measures the assignment solver on the pinned
// fleet-shaped matrix (6 jobs × 8 nodes).
func BenchmarkSolve(b *testing.B) {
	qps := 0.45 * workload.Memcached().PeakQPS
	scores := scoreMatrix(b, benchBEs, benchCaps, qps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(scores, int64(i), 4)
	}
}

// BenchmarkPlan measures one steady-state planner epoch (warm scorer
// memo, nothing to move).
func BenchmarkPlan(b *testing.B) {
	p, snaps := plannerFixture(b, PlannerOptions{})
	snaps[0].PowerW = 60 // nobody starved: the common quiet epoch
	p.Plan(0, snaps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Plan(i+1, snaps)
	}
}
