package sim

import (
	"math"
	"testing"

	"sturgeon/internal/hw"
	"sturgeon/internal/power"
	"sturgeon/internal/workload"
)

// quietAppNode builds a k-app node with noise and interference disabled,
// so step results are a pure function of the partition.
func quietAppNode(apps []workload.Profile, seed int64) *AppNode {
	m := NewAppNode(apps, seed)
	m.Node.Meter = power.NewMeter(0, nil)
	m.Node.Interf = None()
	m.Node.P95NoiseSD = 0
	return m
}

// TestAppNodeMatchesStep is the fold's contract: a [LS, BE] list through
// the k-app entry point is Node.Step, bit for bit, over a noisy run
// (interference, meter and p95 noise, carried backlog) through a cycle of
// configurations from generous to starved.
func TestAppNodeMatchesStep(t *testing.T) {
	ls, be := workload.Memcached(), workload.Raytrace()
	const seed, dur = 41, 300
	pair := NewNode(ls, be, seed)
	apps := NewAppNode([]workload.Profile{ls, be}, seed)
	spec := pair.Spec
	cfgs := []hw.Config{
		hw.SoloLS(spec),
		hw.Complement(spec, hw.Alloc{Cores: 8, Freq: 2.0, LLCWays: 10}, 1.4),
		hw.Complement(spec, hw.Alloc{Cores: 3, Freq: 1.6, LLCWays: 4}, 2.2),
		hw.Complement(spec, hw.Alloc{Cores: 12, Freq: 2.2, LLCWays: 14}, 1.2),
	}
	trace := workload.Triangle(0.1, 0.9, dur)
	interfered, backlogged := 0, 0
	for i := 0; i < dur; i++ {
		cfg := cfgs[(i/25)%len(cfgs)]
		if err := pair.Apply(cfg); err != nil {
			t.Fatal(err)
		}
		if err := apps.Apply([]hw.Alloc{cfg.LS, cfg.BE}); err != nil {
			t.Fatal(err)
		}
		tm := float64(i + 1)
		qps := trace(tm) * ls.PeakQPS
		want := pair.Step(tm, qps)
		truePower, measured := apps.Step([]float64{qps})
		l, b := &apps.Apps[0], &apps.Apps[1]
		got := []float64{l.TrueP95, l.P95, l.QoSFrac, l.LS.Util, l.LS.Rho, b.BE.ThroughputUPS, b.BE.Util,
			float64(truePower), float64(measured), l.Backlog}
		exp := []float64{want.TrueP95, want.P95, want.QoSFrac, want.LSUtil, want.LSRho, want.BEThroughputUPS, want.BEUtil,
			float64(want.TruePower), float64(want.Power), pair.Backlog()}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(exp[k]) {
				t.Fatalf("t=%v field %d: k-app %v, pair %v", tm, k, got[k], exp[k])
			}
		}
		if want.Interference {
			interfered++
		}
		if pair.Backlog() > 0 {
			backlogged++
		}
	}
	if interfered == 0 || backlogged == 0 {
		t.Errorf("interference in %d intervals, backlog in %d: the comparison covers less than it claims", interfered, backlogged)
	}
}

func TestAppNodeStepTwoServices(t *testing.T) {
	apps := []workload.Profile{workload.Memcached(), workload.Xapian(), workload.Raytrace()}
	n := quietAppNode(apps, 3)
	if err := n.Apply([]hw.Alloc{
		{Cores: 6, Freq: 1.8, LLCWays: 6},
		{Cores: 6, Freq: 1.8, LLCWays: 6},
		{Cores: 8, Freq: 1.6, LLCWays: 8},
	}); err != nil {
		t.Fatal(err)
	}
	truePower, _ := n.Step([]float64{0.2 * apps[0].PeakQPS, 0.3 * apps[1].PeakQPS})
	if n.Apps[0].QoSFrac < 0.95 || n.Apps[1].QoSFrac < 0.95 {
		t.Errorf("healthy partition violates QoS: %v, %v", n.Apps[0].QoSFrac, n.Apps[1].QoSFrac)
	}
	if n.Apps[2].BE.ThroughputUPS <= 0 {
		t.Error("BE made no progress")
	}
	if truePower <= n.Node.PowerParams.IdleW {
		t.Error("implausible power")
	}
}

func TestAppNodeRejectsBadPartitions(t *testing.T) {
	n := quietAppNode([]workload.Profile{workload.Memcached(), workload.Raytrace()}, 1)
	if err := n.Apply([]hw.Alloc{{Cores: 4, Freq: 1.6, LLCWays: 4}}); err == nil {
		t.Error("wrong-length partition accepted")
	}
	if err := n.Apply([]hw.Alloc{
		{Cores: 15, Freq: 1.6, LLCWays: 10},
		{Cores: 15, Freq: 1.6, LLCWays: 10},
	}); err == nil {
		t.Error("oversubscribed partition accepted")
	}
	if n.Apps[0].Alloc.Cores != 0 {
		t.Error("a rejected partition was installed")
	}
}
