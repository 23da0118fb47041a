package placement

import (
	"math/rand"
	"reflect"
	"testing"

	"sturgeon/internal/hw"
	"sturgeon/internal/power"
	"sturgeon/internal/queueing"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

// physicsFor is the fleet's physics predictor for memcached next to be:
// the node's steady state at the placement QoS margin.
func physicsFor(be workload.Profile, lat *queueing.Cache) *sim.Oracle {
	return sim.NewOracle(workload.Memcached(), be, 0.9, lat)
}

func TestPhysicsScorer(t *testing.T) {
	sc := NewScorer(hw.DefaultSpec())
	bs := physicsFor(workload.Blackscholes(), queueing.NewCache())
	qps := 0.5 * workload.Memcached().PeakQPS

	rich := sc.Best(bs, qps, 115)
	starved := sc.Best(bs, qps, 88)
	if !rich.Feasible || !starved.Feasible {
		t.Fatalf("expected both caps feasible: rich=%+v starved=%+v", rich, starved)
	}
	if rich.UPS <= starved.UPS {
		t.Fatalf("more power must buy more BE throughput: rich %.0f <= starved %.0f", rich.UPS, starved.UPS)
	}
	if rich.Config.BE.Cores == 0 {
		t.Fatalf("rich cap found no BE allocation: %+v", rich)
	}
	if err := rich.Config.Validate(sc.Spec); err != nil {
		t.Fatalf("best config invalid: %v", err)
	}
	if got := sc.Best(bs, qps, 115); got != rich {
		t.Fatalf("memoized verdict differs: %+v vs %+v", got, rich)
	}

	// A cap below the LS service's own draw is infeasible outright.
	if v := sc.Best(bs, qps, 10); v.Feasible || v.UPS != 0 {
		t.Fatalf("10 W should be infeasible, got %+v", v)
	}
}

func TestPhysicsQoSMonotone(t *testing.T) {
	m := physicsFor(workload.Blackscholes(), nil)
	ls := workload.Memcached()
	a := hw.Alloc{Cores: 12, Freq: 2.2, LLCWays: 12}
	if !m.QoSOK(a, 0.3*ls.PeakQPS) {
		t.Fatalf("12 fast cores must hold QoS at 30%% peak")
	}
	if m.QoSOK(hw.Alloc{Cores: 2, Freq: 1.2, LLCWays: 2}, ls.PeakQPS) {
		t.Fatalf("2 slow cores cannot hold QoS at peak")
	}
	if m.Throughput(hw.Alloc{}) != 0 {
		t.Fatalf("empty BE allocation must earn nothing")
	}
}

// scoreMatrix builds a jobs×nodes matrix from physics predictors over
// a heterogeneous cap vector, the shape the fleet builder feeds Solve.
func scoreMatrix(t testing.TB, bes []workload.Profile, caps []power.Watts, qps float64) [][]float64 {
	t.Helper()
	sc := NewScorer(hw.DefaultSpec())
	shared := queueing.NewCache()
	scores := make([][]float64, len(bes))
	for j, be := range bes {
		m := physicsFor(be, shared)
		scores[j] = make([]float64, len(caps))
		for n, cap := range caps {
			v := sc.Best(m, qps, cap)
			if !v.Feasible {
				scores[j][n] = Infeasible
				continue
			}
			scores[j][n] = v.UPS
		}
	}
	return scores
}

var benchBEs = []workload.Profile{
	workload.Blackscholes(), workload.Swaptions(), workload.Facesim(),
	workload.Ferret(), workload.Raytrace(), workload.Fluidanimate(),
}

var benchCaps = []power.Watts{112, 88, 112, 88, 104, 90, 112, 86}

func TestSolveBeatsRandom(t *testing.T) {
	qps := 0.45 * workload.Memcached().PeakQPS
	scores := scoreMatrix(t, benchBEs, benchCaps, qps)
	got := Solve(scores, 1, 4)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(benchCaps))
		total := 0.0
		for j := range benchBEs {
			if s := scores[j][perm[j]]; s > 0 {
				total += s
			}
		}
		if total > got.TotalUPS {
			t.Fatalf("random permutation %d scores %.0f > solver %.0f", trial, total, got.TotalUPS)
		}
	}
	if got.TotalUPS <= 0 {
		t.Fatalf("solver found nothing: %+v", got)
	}
}

func TestSolveDeterministicAndConserving(t *testing.T) {
	qps := 0.45 * workload.Memcached().PeakQPS
	scores := scoreMatrix(t, benchBEs, benchCaps, qps)
	base := Solve(scores, 42, 4)
	for i := 0; i < 3; i++ {
		if again := Solve(scores, 42, 4); !reflect.DeepEqual(again, base) {
			t.Fatalf("rerun %d differs: %+v vs %+v", i, again, base)
		}
	}
	// Different tie-break seeds still yield valid, conserving plans.
	for _, seed := range []int64{1, 2, 99} {
		a := Solve(scores, seed, 4)
		used := make(map[int]bool)
		for j, n := range a.NodeOf {
			if n < 0 {
				continue
			}
			if used[n] {
				t.Fatalf("seed %d: node %d hosts two jobs", seed, n)
			}
			used[n] = true
			if scores[j][n] < 0 {
				t.Fatalf("seed %d: job %d on infeasible node %d", seed, j, n)
			}
		}
	}
}

func TestSolveConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 200; trial++ {
		jobs, nodes := 1+rng.Intn(8), 1+rng.Intn(10)
		scores := make([][]float64, jobs)
		for j := range scores {
			scores[j] = make([]float64, nodes)
			for n := range scores[j] {
				if rng.Float64() < 0.25 {
					scores[j][n] = Infeasible
				} else {
					scores[j][n] = rng.Float64() * 1e6
				}
			}
		}
		a := Solve(scores, int64(trial), 4)
		used := make(map[int]bool)
		placed := 0
		for j, n := range a.NodeOf {
			if n < 0 {
				continue
			}
			placed++
			if n >= nodes || used[n] {
				t.Fatalf("trial %d: invalid or reused node %d", trial, n)
			}
			used[n] = true
			if scores[j][n] < 0 {
				t.Fatalf("trial %d: job %d placed on infeasible node", trial, j)
			}
		}
		// Every unplaced job must genuinely have no feasible free node.
		for j, n := range a.NodeOf {
			if n >= 0 {
				continue
			}
			for f := 0; f < nodes; f++ {
				if !used[f] && scores[j][f] >= 0 {
					t.Fatalf("trial %d: job %d unplaced but node %d is free and feasible", trial, j, f)
				}
			}
		}
		_ = placed
	}
}

func plannerFixture(t testing.TB, opt PlannerOptions) (*Planner, []NodeSnap) {
	t.Helper()
	sc := NewScorer(hw.DefaultSpec())
	shared := queueing.NewCache()
	jobs := make([]Job, 2)
	for j, be := range []workload.Profile{workload.Blackscholes(), workload.Swaptions()} {
		jobs[j] = Job{ID: be.Name, Model: physicsFor(be, shared)}
	}
	qps := 0.45 * workload.Memcached().PeakQPS
	snaps := []NodeSnap{
		{QPS: qps, CapW: 88, PowerW: 87.5, Healthy: true, Job: 0}, // starved host
		{QPS: qps, CapW: 112, PowerW: 95, Healthy: true, Job: -1}, // rich free node
		{QPS: qps, CapW: 104, PowerW: 98, Healthy: true, Job: 1},  // comfortable host
		{QPS: qps, CapW: 90, PowerW: 70, Healthy: true, Job: -1},  // poor free node
	}
	return NewPlanner(jobs, sc, opt), snaps
}

func TestPlannerEvictsStarvedAndNeverFlaps(t *testing.T) {
	p, snaps := plannerFixture(t, PlannerOptions{WarmupS: 10})
	moves := p.Plan(1, snaps)
	if len(moves) != 1 {
		t.Fatalf("want exactly the starved eviction, got %+v", moves)
	}
	m := moves[0]
	if m.Job != 0 || m.From != 0 || m.To != 1 || m.Reason != ReasonStarved {
		t.Fatalf("unexpected move %+v", m)
	}
	if m.GainUPS <= 0 {
		t.Fatalf("eviction must predict a gain, got %+v", m)
	}

	// Apply the move; the fleet is now stable: no snap is starved, no
	// trough declared — the planner must stay quiet forever after.
	snaps[0].Job, snaps[0].PowerW = -1, 60
	snaps[1].Job = m.Job
	for epoch := 2; epoch < 40; epoch++ {
		if extra := p.Plan(epoch, snaps); len(extra) != 0 {
			t.Fatalf("epoch %d: planner flapped: %+v", epoch, extra)
		}
	}
}

func TestPlannerCooldownAndWarmup(t *testing.T) {
	p, snaps := plannerFixture(t, PlannerOptions{WarmupS: 10, CooldownEpochs: 5})
	if moves := p.Plan(1, snaps); len(moves) != 1 {
		t.Fatalf("setup move missing: %+v", moves)
	}
	// Same starved picture again immediately: job 0 is cooling down.
	if moves := p.Plan(2, snaps); len(moves) != 0 {
		t.Fatalf("cooldown violated: %+v", moves)
	}
	// A warming destination is not a free node and a warming host
	// cannot be evicted.
	p2, snaps2 := plannerFixture(t, PlannerOptions{WarmupS: 10})
	snaps2[1].Warm = 5
	snaps2[3].CapW = 88 // make the remaining free node useless vs staying
	snaps2[3].PowerW = 87
	snaps2[3].Job = -1
	if moves := p2.Plan(1, snaps2); len(moves) != 0 {
		t.Fatalf("moved onto warming or worse node: %+v", moves)
	}
}

func TestPlannerHysteresisBlocksMarginalMoves(t *testing.T) {
	// Destination equals the source cap: zero gain, hysteresis holds.
	p, snaps := plannerFixture(t, PlannerOptions{Hysteresis: 0.10})
	snaps[1].CapW = snaps[0].CapW
	if moves := p.Plan(1, snaps); len(moves) != 0 {
		t.Fatalf("hysteresis failed to block a zero-gain move: %+v", moves)
	}
}

func TestPlannerConsolidatesInTrough(t *testing.T) {
	p, snaps := plannerFixture(t, PlannerOptions{TroughQPS: 1e9, WarmupS: 10})
	// Nobody is starved…
	snaps[0].PowerW = 70
	// …but the fleet is in a trough (threshold absurdly high), so the
	// planner may still consolidate job 0 onto the rich node.
	moves := p.Plan(1, snaps)
	if len(moves) != 1 || moves[0].Reason != ReasonConsolidate {
		t.Fatalf("want one consolidation move, got %+v", moves)
	}
}
