package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sturgeon/internal/control"
	"sturgeon/internal/coordinator"
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

// TestCoordinationChaosAccounting cross-checks the run's drop/outage
// tallies against an independently rebuilt copy of the same chaos plan —
// the counters must be a pure function of (spec, seed, horizon).
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
	plan := coordinator.NewChaos(coordinator.DefaultChaosSpec(), o.Seed+1, epochs, o.Nodes)
	wantOutages, wantDrops := 0, 0
	for e := 1; e <= epochs; e++ {
		if plan.Outage(e) {
			wantOutages++
			continue // drops inside an outage window are not separately counted
		}
		for n := 0; n < o.Nodes; n++ {
			if plan.Dropped(e, n) {
				wantDrops++
			}
		}
	}
	if res.Coord.Epochs != epochs {
		t.Errorf("epochs %d, want %d", res.Coord.Epochs, epochs)
	}
	if res.Coord.OutageEpochs != wantOutages {
		t.Errorf("outage epochs %d, want %d", res.Coord.OutageEpochs, wantOutages)
	}
	if res.Coord.DroppedReports != wantDrops {
		t.Errorf("dropped reports %d, want %d", res.Coord.DroppedReports, wantDrops)
	}
	if res.Coord.Fallbacks < wantDrops+wantOutages*o.Nodes {
		t.Errorf("fallbacks %d below the chaos floor %d",
			res.Coord.Fallbacks, wantDrops+wantOutages*o.Nodes)
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
// at an equal-or-better QoS rate, even while the coordinator chaos plan
// drops reports and takes the coordinator down.
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
