package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sturgeon/internal/control"
	"sturgeon/internal/coordinator"
	"sturgeon/internal/faults"
	"sturgeon/internal/hw"
	"sturgeon/internal/obs"
	"sturgeon/internal/power"
	"sturgeon/internal/workload"
)

// fakeTransport hands out scripted grants (or a scripted failure) and
// records every report it sees, isolating the cluster-side grant loop
// from real arbitration.
type fakeTransport struct {
	grants  map[string]float64 // node ID -> cap to grant; missing = echo report cap
	err     error
	reports []coordinator.NodeReport
}

func (f *fakeTransport) Report(_ context.Context, r coordinator.NodeReport) (coordinator.Grant, error) {
	f.reports = append(f.reports, r)
	if f.err != nil {
		return coordinator.Grant{}, f.err
	}
	cap := r.CapW
	if w, ok := f.grants[r.NodeID]; ok {
		cap = w
	}
	return coordinator.Grant{Schema: coordinator.Schema, NodeID: r.NodeID, Epoch: r.Epoch, CapW: cap}, nil
}

func (f *fakeTransport) Status(context.Context) (*coordinator.FleetStatus, error) {
	return nil, fmt.Errorf("fake transport has no status")
}

// capRecorder is a pass-through controller that records SetBudget calls.
type capRecorder struct {
	budgets []power.Watts
}

func (c *capRecorder) Decide(ob control.Observation) hw.Config { return ob.Config }
func (c *capRecorder) Name() string                            { return "cap-recorder" }
func (c *capRecorder) SetBudget(w power.Watts)                 { c.budgets = append(c.budgets, w) }

func coordTestFleet(t *testing.T, tr coordinator.Transport) (*Cluster, []*capRecorder) {
	t.Helper()
	ls, be := workload.Memcached(), workload.Raytrace()
	recs := make([]*capRecorder, 2)
	c, err := New(2, ls, be, 100, RoundRobin{}, 7, func(i int) control.Controller {
		recs[i] = &capRecorder{}
		return recs[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Parallelism = 1
	c.Coord = &Coordination{Transport: tr, EpochS: 5}
	return c, recs
}

func TestCoordinationAppliesGrantsAndPropagatesBudget(t *testing.T) {
	ft := &fakeTransport{grants: map[string]float64{"node-000": 110, "node-001": 86}}
	c, recs := coordTestFleet(t, ft)
	res := c.Run(workload.Constant(0.3), 10)

	caps := c.Caps()
	if caps[0] != 110 || caps[1] != 86 {
		t.Fatalf("granted caps not applied: %v", caps)
	}
	if !res.Coordinated || res.Coord.Epochs != 2 {
		t.Fatalf("expected 2 coordination epochs, got %+v", res.Coord)
	}
	// Epoch 1 moves both nodes off the 100 W budget; epoch 2 re-grants the
	// same caps, so nothing more moves.
	if res.Coord.MovedW != 10+14 {
		t.Fatalf("moved_w %.1f, want 24", res.Coord.MovedW)
	}
	if len(recs[0].budgets) != 1 || recs[0].budgets[0] != 110 {
		t.Fatalf("node 0 SetBudget calls %v, want one call with 110", recs[0].budgets)
	}
	if len(recs[1].budgets) != 1 || recs[1].budgets[0] != 86 {
		t.Fatalf("node 1 SetBudget calls %v, want one call with 86", recs[1].budgets)
	}
	// Reports carry the cap in force at submission time: 100 W at epoch 1,
	// the granted caps at epoch 2.
	if len(ft.reports) != 4 {
		t.Fatalf("got %d reports, want 4", len(ft.reports))
	}
	if ft.reports[0].CapW != 100 || ft.reports[2].CapW != 110 {
		t.Fatalf("report caps %v %v, want 100 then 110", ft.reports[0].CapW, ft.reports[2].CapW)
	}
}

func TestCoordinationFallsBackOnTransportError(t *testing.T) {
	ft := &fakeTransport{err: fmt.Errorf("coordinator unreachable")}
	c, recs := coordTestFleet(t, ft)
	res := c.Run(workload.Constant(0.3), 10)

	for i, w := range c.Caps() {
		if w != 100 {
			t.Errorf("node %d cap moved to %.1f on a failing transport", i, float64(w))
		}
	}
	if res.Coord.Fallbacks != 4 {
		t.Errorf("fallbacks %d, want 4 (2 nodes x 2 epochs)", res.Coord.Fallbacks)
	}
	if res.Coord.MovedW != 0 {
		t.Errorf("moved_w %.1f on a failing transport", res.Coord.MovedW)
	}
	if len(recs[0].budgets) != 0 {
		t.Errorf("SetBudget called despite no grants: %v", recs[0].budgets)
	}
}

// TestCoordinationChaosAccounting cross-checks the run's lost-report
// tally against an independent count of the (epoch, node) pairs the
// rebuilt chaos windows cover — the counters must be a pure function of
// (seed, horizon). No node faults are injected, so every node submits
// every epoch and each covered pair is exactly one severed report.
func TestCoordinationChaosAccounting(t *testing.T) {
	o := DefaultCoordFleet(11)
	o.Coordinated = true
	o.Chaos = true
	c, err := BuildCoordFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	c.Parallelism = 1
	res := c.Run(o.Trace(), o.DurationS)

	epochs := o.DurationS / o.EpochS
	covered := map[[2]int]bool{}
	for _, w := range chaosWindows(o.Seed+1, epochs, o.Nodes) {
		for e := w.Start; e < w.End && e <= epochs; e++ {
			covered[[2]int{e, w.Node}] = true
		}
	}
	want := len(covered)
	if res.Coord.Epochs != epochs {
		t.Errorf("epochs %d, want %d", res.Coord.Epochs, epochs)
	}
	if res.Coord.Net.PartitionedOut != want || res.Coord.DroppedReports != want {
		t.Errorf("partitioned-out %d, dropped reports %d, want %d",
			res.Coord.Net.PartitionedOut, res.Coord.DroppedReports, want)
	}
	if res.Coord.Fallbacks < want {
		t.Errorf("fallbacks %d below the chaos floor %d", res.Coord.Fallbacks, want)
	}
}

// TestChaosWindowsAreDeterministic: the chaos schedule is a pure
// function of its seed, and another seed draws another schedule
// (overwhelmingly likely at 10 % drops over 96×8 slots).
func TestChaosWindowsAreDeterministic(t *testing.T) {
	a, b := chaosWindows(42, 96, 8), chaosWindows(42, 96, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 42 drew two different chaos schedules")
	}
	if reflect.DeepEqual(a, chaosWindows(43, 96, 8)) {
		t.Error("seeds 42 and 43 drew identical chaos schedules")
	}
}

// TestChaosWindowsShape: drops are one-epoch report windows at about
// the pinned rate, and both outages sever every node's report direction
// for 3 epochs, clamped at the horizon once the plan is built.
func TestChaosWindowsShape(t *testing.T) {
	const nodes = 8
	clamped := false
	for _, tc := range []struct {
		seed   int64
		epochs int
	}{{7, 96}, {11, 96}, {1, 4}, {2, 4}, {3, 4}} {
		ws := chaosWindows(tc.seed, tc.epochs, nodes)
		plan := faults.ManualNet(tc.epochs, nodes, ws...)
		drops, outages := 0, 0
		for _, w := range ws {
			if w.Dir != faults.DirReport {
				t.Fatalf("seed %d: window %+v severs the grant direction", tc.seed, w)
			}
			switch w.End - w.Start {
			case 1:
				drops++
				continue
			case 3:
				outages++
			default:
				t.Fatalf("seed %d: window %+v is neither a drop nor an outage", tc.seed, w)
			}
			if w.Node != 0 {
				continue
			}
			end := min(w.Start+3, tc.epochs+1)
			clamped = clamped || end < w.Start+3
			for e := w.Start; e < end; e++ {
				for n := 0; n < nodes; n++ {
					if !plan.PartitionedOut(e, n) {
						t.Errorf("seed %d: outage from epoch %d misses node %d at epoch %d",
							tc.seed, w.Start, n, e)
					}
				}
			}
		}
		if outages != 2*nodes {
			t.Errorf("seed %d: %d outage windows, want 2 outages × %d nodes", tc.seed, outages, nodes)
		}
		for n := 0; n < nodes; n++ {
			if plan.PartitionedOut(tc.epochs+1, n) {
				t.Errorf("seed %d: node %d severed past the horizon", tc.seed, n)
			}
		}
		// 10 % of 96×8 ≈ 77 expected drops; a wide deterministic band.
		if tc.epochs == 96 && (drops < 30 || drops > 150) {
			t.Errorf("seed %d: %d drops outside the plausible band for a 10 %% rate", tc.seed, drops)
		}
	}
	if !clamped {
		t.Error("no outage reached the horizon; the clamp went unchecked")
	}
}

// coordGoldenScenario is the pinned coordinated diurnal fleet (chaos
// included) whose summary lives in testdata/coord_summary.golden.
func coordGoldenScenario(t *testing.T, parallelism int) Result {
	t.Helper()
	return coordGoldenScenarioObs(t, parallelism, nil)
}

// coordGoldenScenarioObs additionally attaches a decision-trail sink
// (nil = uninstrumented) for the observability battery.
func coordGoldenScenarioObs(t *testing.T, parallelism int, sink *obs.Sink) Result {
	t.Helper()
	c, tr, duration := coordGoldenScenarioCluster(t, parallelism, sink)
	return c.Run(tr, duration)
}

// coordGoldenScenarioCluster builds the pinned coordinated fleet
// without running it (for the cross-engine equivalence battery).
func coordGoldenScenarioCluster(t *testing.T, parallelism int, sink *obs.Sink) (*Cluster, workload.Trace, int) {
	t.Helper()
	o := DefaultCoordFleet(20260806)
	o.Coordinated = true
	o.Chaos = true
	c, err := BuildCoordFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	c.Parallelism = parallelism
	c.SetObs(sink)
	return c, o.Trace(), o.DurationS
}

// TestCoordinationBeatsEvenSplit is the coordinator's reason to exist:
// on the pinned diurnal fleet, arbitrated caps must buy strictly more
// best-effort throughput than the static even split of the same budget,
// at an equal-or-better QoS rate, even while the chaos schedule drops
// reports and cuts every node off from the coordinator for whole epochs.
func TestCoordinationBeatsEvenSplit(t *testing.T) {
	o := DefaultCoordFleet(20260806)
	c, err := BuildCoordFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	c.Parallelism = 1
	even := c.Run(o.Trace(), o.DurationS)
	granted := coordGoldenScenario(t, 1)
	t.Logf("even: qos %.6f be %.2f | granted: qos %.6f be %.2f",
		even.QoSRate, even.MeanBEThroughputUPS, granted.QoSRate, granted.MeanBEThroughputUPS)
	if granted.MeanBEThroughputUPS <= even.MeanBEThroughputUPS {
		t.Errorf("coordinated caps do not beat the even split on BE throughput: %.2f vs %.2f UPS",
			granted.MeanBEThroughputUPS, even.MeanBEThroughputUPS)
	}
	if granted.QoSRate < even.QoSRate {
		t.Errorf("coordinated caps sacrifice QoS: %.6f vs even %.6f", granted.QoSRate, even.QoSRate)
	}
}

func TestGoldenCoordSummary(t *testing.T) {
	got := coordGoldenScenario(t, 1).Summary()
	path := filepath.Join("testdata", "coord_summary.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("coordinated fleet summary drifted from golden fixture.\n--- got ---\n%s--- want ---\n%s"+
			"(if the change is intentional, regenerate with `go test ./internal/cluster -run Golden -update`)",
			got, want)
	}
}

// TestCoordParallelismByteIdentical pins the acceptance criterion that a
// seeded coordinated run is byte-identical at any node-stepping fan-out:
// grants are exchanged in the serial merge, so worker count must change
// wall-clock time only.
func TestCoordParallelismByteIdentical(t *testing.T) {
	ref := coordGoldenScenario(t, 1).Summary()
	for _, par := range []int{2, 4, 8} {
		if got := coordGoldenScenario(t, par).Summary(); got != ref {
			t.Fatalf("coordinated summary diverges at parallelism %d.\n--- par=1 ---\n%s--- par=%d ---\n%s",
				par, ref, par, got)
		}
	}
}
