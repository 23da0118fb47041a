package cluster

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sturgeon/internal/control"
	"sturgeon/internal/faults"
	"sturgeon/internal/hw"
	"sturgeon/internal/sim"
	"sturgeon/internal/workload"
)

// TestParallelSteppingMatchesSerialGolden is the determinism half of the
// worker-pool contract: the golden chaos scenario stepped serially and at
// several worker counts (including ≥ 4, beyond this fleet's node count)
// must produce byte-identical summaries, all equal to the checked-in
// serial fixture. It runs under -race in CI, so it also proves the
// fan-out shares no mutable state between node tasks.
func TestParallelSteppingMatchesSerialGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fleet_summary.golden"))
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	for _, par := range []int{1, 2, 4, 8} {
		got := goldenScenarioAt(t, par).Summary()
		if got != string(want) {
			t.Errorf("parallelism=%d diverged from the serial golden fixture.\n--- got ---\n%s--- want ---\n%s",
				par, got, want)
		}
	}
}

// TestParallelSteppingLargeFleet cross-checks a 16-node fleet with the
// adaptive least-loaded dispatcher and per-node chaos plans — the
// dispatcher couples every node's share to every other node's previous
// interval, which is exactly the state the pool must not let tasks read
// mid-update. Serial and parallelism=8 runs must agree byte-for-byte.
func TestParallelSteppingLargeFleet(t *testing.T) {
	run := func(parallelism int) string {
		c, tr := largeFleet(t, parallelism)
		return c.Run(tr, largeFleetS).Summary()
	}
	serial := run(1)
	if pooled := run(8); pooled != serial {
		t.Fatalf("16-node fleet diverged between parallelism 1 and 8.\n--- serial ---\n%s--- pooled ---\n%s",
			serial, pooled)
	}
}

// largeFleetS is the horizon of the large-fleet scenario.
const largeFleetS = 60

// largeFleet builds 16 statically managed nodes behind the least-loaded
// dispatcher, each with the default chaos profile, and the triangle load
// they run under.
func largeFleet(t *testing.T, parallelism int) (*Cluster, workload.Trace) {
	t.Helper()
	ls, be := workload.Memcached(), workload.Raytrace()
	probe := sim.QuietNode(ls, be, 1)
	budget := sim.LSPeakPower(probe.Spec, probe.PowerParams, probe.Bus, ls)
	split := hw.Config{
		LS: hw.Alloc{Cores: 12, Freq: 2.0, LLCWays: 12},
		BE: hw.Alloc{Cores: 8, Freq: 1.6, LLCWays: 8},
	}
	c, err := New(16, ls, be, budget, &LeastLoaded{}, 7, func(int) control.Controller {
		return control.Static{Cfg: split}
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Parallelism = parallelism
	c.InjectFaults(faults.DefaultSpec(), largeFleetS)
	return c, workload.Triangle(0.2, 0.7, largeFleetS)
}

// TestLargeFleetAllocsPerStep bounds a whole serial run's heap objects
// per simulated node-second. The step itself allocates nothing (the sim
// package's alloc tests pin that); what remains is one-time fill and
// report assembly amortized over the run. The figure is about 0.3; a
// ceiling of 4 catches a per-step allocation creeping back without
// depending on the host or the Go version.
func TestLargeFleetAllocsPerStep(t *testing.T) {
	c, tr := largeFleet(t, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Run(tr, largeFleetS)
	runtime.ReadMemStats(&after)
	perStep := float64(after.Mallocs-before.Mallocs) / float64(len(c.Nodes)*largeFleetS)
	t.Logf("%.3f allocs per node-step", perStep)
	if perStep > 4.0 {
		t.Fatalf("%.3f allocs per node-step, want ≤ 4.0", perStep)
	}
}
