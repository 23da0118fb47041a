package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sturgeon/internal/coordinator"
	"sturgeon/internal/faults"
	"sturgeon/internal/invariant"
	"sturgeon/internal/obs"
)

// The partition battery: the coordpartition8 scenario pins the fenced-
// lease control plane under directed partitions, and the chaos matrix
// drives randomized drop/delay/reorder/duplication schedules (plus a
// coordinator kill) through both engines at several parallelism levels
// with the invariant checker attached. The one unforgivable outcome —
// Σ(effective caps) escaping the budget while the control plane
// misbehaves — fails every test here.

const partitionSeed = 20260808

// partitionFleet builds the pinned coordpartition8 scenario with an
// invariant checker attached. leased=false is the stale-cap-cliff
// baseline the win gate compares against.
func partitionFleet(t *testing.T, leased bool, parallelism int, eng Engine) (*Cluster, CoordFleetOptions) {
	t.Helper()
	o := DefaultCoordFleet(partitionSeed)
	o.Coordinated = true
	o.Partition = true
	o.Leased = leased
	c, err := BuildCoordFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	c.Parallelism = parallelism
	c.Engine = eng
	c.Invariants = invariant.New(o.EvenCapW*float64(o.Nodes), 0)
	return c, o
}

func requireNoViolations(t *testing.T, label string, k *invariant.Checker) {
	t.Helper()
	if k.Checks() == 0 {
		t.Fatalf("%s: invariant checker never ran", label)
	}
	if v := k.Violations(); len(v) > 0 {
		t.Fatalf("%s: %d invariant violations (+%d dropped), first: %s",
			label, len(v), k.DroppedViolations(), v[0])
	}
}

// TestPartitionLeasedBeatsStaleCliff is the tentpole's win gate: under
// the pinned partition schedule, fenced leases with the degraded-mode
// ratchet must recover at least as much fleet BE throughput as the
// legacy stale-cap cliff (where the coordinator freezes the partitioned
// nodes' watts and nobody can spend them) — without a single invariant
// violation on either arm.
func TestPartitionLeasedBeatsStaleCliff(t *testing.T) {
	stale, o := partitionFleet(t, false, 1, EngineStep)
	staleRes := stale.Run(o.Trace(), o.DurationS)
	leasedC, _ := partitionFleet(t, true, 1, EngineStep)
	leasedRes := leasedC.Run(o.Trace(), o.DurationS)

	requireNoViolations(t, "stale baseline", stale.Invariants)
	requireNoViolations(t, "leased", leasedC.Invariants)
	t.Logf("stale BE %.2f leased BE %.2f (max Σcaps stale %.2f leased %.2f, excess %.3f/%.3f)",
		staleRes.MeanBEThroughputUPS, leasedRes.MeanBEThroughputUPS,
		stale.Invariants.MaxSumCapsW(), leasedC.Invariants.MaxSumCapsW(),
		stale.Invariants.MaxExcessW(), leasedC.Invariants.MaxExcessW())

	if leasedRes.MeanBEThroughputUPS < staleRes.MeanBEThroughputUPS {
		t.Errorf("leased degraded mode lost BE throughput to the stale-cap cliff: %.2f < %.2f",
			leasedRes.MeanBEThroughputUPS, staleRes.MeanBEThroughputUPS)
	}
	if !leasedRes.Coord.Leased {
		t.Fatal("leased run never saw a leased grant")
	}
	// The pinned schedule holds the STRICT budget bound (no transient
	// grant-lag overshoot), so pin that too: Σ(effective caps) never
	// exceeds the budget at any simulated second, on either arm.
	for label, k := range map[string]*invariant.Checker{"stale": stale.Invariants, "leased": leasedC.Invariants} {
		if k.MaxExcessW() > 1e-6 {
			t.Errorf("%s arm exceeded the budget by %.3f W", label, k.MaxExcessW())
		}
	}
	if leasedRes.Coord.DegradedEpisodes < 2 {
		t.Errorf("expected ≥2 degraded episodes (node 7 and the asymmetric node 5), got %d",
			leasedRes.Coord.DegradedEpisodes)
	}
	if leasedRes.Coord.DegradedExits < 2 {
		t.Errorf("expected every partitioned node to rejoin, got %d exits", leasedRes.Coord.DegradedExits)
	}
	if leasedRes.Coord.LeaseRatchetW <= 0 {
		t.Error("degraded mode never ratcheted any watts")
	}
	if staleRes.Coord.Leased || staleRes.Coord.DegradedEpisodes != 0 {
		t.Errorf("stale baseline unexpectedly took lease paths: %+v", staleRes.Coord)
	}
}

// TestPartitionWinGate holds the win at a node-stepping fan-out of 4:
// both arms stay invariant-clean, the stale-cliff baseline replays its
// parallelism-1 summary byte for byte, and leased BE throughput is
// still at least the stale baseline's.
func TestPartitionWinGate(t *testing.T) {
	ref, o := partitionFleet(t, false, 1, EngineStep)
	want := ref.Run(o.Trace(), o.DurationS).Summary()
	stale, _ := partitionFleet(t, false, 4, EngineStep)
	staleRes := stale.Run(o.Trace(), o.DurationS)
	leased, _ := partitionFleet(t, true, 4, EngineStep)
	leasedRes := leased.Run(o.Trace(), o.DurationS)

	requireNoViolations(t, "stale par=4", stale.Invariants)
	requireNoViolations(t, "leased par=4", leased.Invariants)
	if got := staleRes.Summary(); got != want {
		t.Fatalf("stale baseline diverges at parallelism 4.\n--- par=1 ---\n%s--- par=4 ---\n%s", want, got)
	}
	t.Logf("stale: qos %.6f be %.2f | leased: qos %.6f be %.2f",
		staleRes.QoSRate, staleRes.MeanBEThroughputUPS, leasedRes.QoSRate, leasedRes.MeanBEThroughputUPS)
	if leasedRes.MeanBEThroughputUPS < staleRes.MeanBEThroughputUPS {
		t.Errorf("leased degraded mode lost BE throughput to the stale-cap cliff at parallelism 4: %.2f < %.2f",
			leasedRes.MeanBEThroughputUPS, staleRes.MeanBEThroughputUPS)
	}
}

// TestGoldenCoordPartitionSummary pins the leased partition run's full
// trajectory byte-for-byte.
func TestGoldenCoordPartitionSummary(t *testing.T) {
	c, o := partitionFleet(t, true, 1, EngineStep)
	got := c.Run(o.Trace(), o.DurationS).Summary()
	requireNoViolations(t, "golden", c.Invariants)
	path := filepath.Join("testdata", "coord_partition_summary.golden")
	if *updateGolden {
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
		t.Errorf("partition summary drifted from golden fixture.\n--- got ---\n%s--- want ---\n%s"+
			"(if the change is intentional, regenerate with `go test ./internal/cluster -run Golden -update`)",
			got, want)
	}
}

// TestPartitionCrossEngineParallelism pins the acceptance criterion:
// the leased partition run is byte-identical across engines and
// stepping parallelism, and the checker stays clean on every arm.
func TestPartitionCrossEngineParallelism(t *testing.T) {
	ref, o := partitionFleet(t, true, 1, EngineStep)
	want := ref.Run(o.Trace(), o.DurationS).Summary()
	requireNoViolations(t, "step/par=1", ref.Invariants)
	for _, eng := range []Engine{EngineStep, EngineEvent} {
		for _, par := range []int{1, 2, 4, 8} {
			if eng == EngineStep && par == 1 {
				continue
			}
			c, _ := partitionFleet(t, true, par, eng)
			got := c.Run(o.Trace(), o.DurationS).Summary()
			label := map[Engine]string{EngineStep: "step", EngineEvent: "event"}[eng]
			requireNoViolations(t, label, c.Invariants)
			if got != want {
				t.Fatalf("summary diverges at engine=%s parallelism=%d.\n--- ref ---\n%s--- got ---\n%s",
					label, par, want, got)
			}
		}
	}
}

// chaosFleet builds one chaos-matrix arm: a leased coordinated fleet
// under a randomized network-fault plan, optionally with the mid-run
// coordinator kill+recovery.
func chaosFleet(t *testing.T, seed int64, spec faults.NetSpec, kill bool,
	parallelism int, eng Engine) (*Cluster, CoordFleetOptions) {
	t.Helper()
	o := DefaultCoordFleet(partitionSeed)
	o.Coordinated = true
	o.Leased = true
	o.CrashRestart = kill
	o.Net = faults.NewNet(spec, seed, o.DurationS/o.EpochS, o.Nodes)
	c, err := BuildCoordFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	c.Parallelism = parallelism
	c.Engine = eng
	c.Invariants = invariant.New(o.EvenCapW*float64(o.Nodes), 0)
	return c, o
}

// TestPartitionChaosBatteryInvariants is the full chaos battery:
// partitions × delay/reorder/duplication/drop × coordinator kill, each
// arm run on both engines at parallelism 1/2/4/8 — byte-identical
// summaries and zero invariant violations everywhere.
func TestPartitionChaosBatteryInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos battery is long")
	}
	heavy := faults.NetSpec{PartitionRate: 0.04, MeanPartitionEpochs: 3,
		DropRate: 0.08, DelayRate: 0.08, DupRate: 0.08, ReorderRate: 0.5}
	arms := []struct {
		name string
		seed int64
		spec faults.NetSpec
		kill bool
	}{
		{"default", 1, faults.DefaultNetSpec(), false},
		{"heavy", 2, heavy, false},
		{"heavy-kill", 3, heavy, true},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			ref, o := chaosFleet(t, arm.seed, arm.spec, arm.kill, 1, EngineStep)
			want := ref.Run(o.Trace(), o.DurationS).Summary()
			requireNoViolations(t, arm.name+"/step/1", ref.Invariants)
			for _, eng := range []Engine{EngineStep, EngineEvent} {
				for _, par := range []int{1, 2, 4, 8} {
					if eng == EngineStep && par == 1 {
						continue
					}
					c, _ := chaosFleet(t, arm.seed, arm.spec, arm.kill, par, eng)
					got := c.Run(o.Trace(), o.DurationS).Summary()
					label := map[Engine]string{EngineStep: "step", EngineEvent: "event"}[eng]
					requireNoViolations(t, arm.name+"/"+label, c.Invariants)
					if got != want {
						t.Fatalf("%s diverges at engine=%s parallelism=%d.\n--- ref ---\n%s--- got ---\n%s",
							arm.name, label, par, want, got)
					}
				}
			}
		})
	}
}

// TestNetChaosAccounting cross-checks the run's message-fate tallies
// against an independently rebuilt copy of the same net plan — the
// counters must be a pure function of (spec, seed, horizon, fleet).
func TestNetChaosAccounting(t *testing.T) {
	c, o := chaosFleet(t, 5, faults.DefaultNetSpec(), false, 1, EngineStep)
	res := c.Run(o.Trace(), o.DurationS)
	if res.Coord.Net == (coordinator.NetStats{}) {
		t.Fatal("net chaos imposed no message fates — the battery is vacuous")
	}
	if res.Coord.Net.Delayed > 0 && res.Coord.Net.DeliveredLate == 0 {
		t.Errorf("delayed reports were never flushed: %+v", res.Coord.Net)
	}
	if res.Coord.DegradedEpisodes == 0 {
		t.Error("chaos run never entered degraded mode")
	}
	t.Logf("net stats %+v, coord %+v", res.Coord.Net, res.Coord)
}

// leaseFakeTransport grants every node the same fenced lease (two-epoch
// TTL, tokens fenced by epoch) and, from failFromEpoch on, fails the
// exchange for failNode — a one-node renewal blackout with no real
// coordinator behind it.
type leaseFakeTransport struct {
	capW, floorW  float64
	failNode      string
	failFromEpoch int
}

func (f *leaseFakeTransport) Report(_ context.Context, r coordinator.NodeReport) (coordinator.Grant, error) {
	if r.NodeID == f.failNode && r.Epoch >= f.failFromEpoch {
		return coordinator.Grant{}, context.DeadlineExceeded
	}
	return coordinator.Grant{Schema: coordinator.Schema, NodeID: r.NodeID, Epoch: r.Epoch,
		CapW: f.capW, Token: int64(r.Epoch), LeaseEpochs: 2, FloorW: f.floorW}, nil
}

func (f *leaseFakeTransport) Status(context.Context) (*coordinator.FleetStatus, error) {
	return nil, context.DeadlineExceeded
}

// TestQuiescenceLeaseWake: a node's lease renewals stop while the whole
// fleet sits at a fixed point on a flat trace. The degraded ratchet
// then moves the node's cap every second inside the quiescent stretch,
// and that descent is driven solely by KindLease wake-ups (ratchet cap
// changes deliberately do not schedule settle events — see engine.go).
// Without the wake-ups the engine freezes the cap above the floor for a
// whole epoch — the stale-cap cliff the lease exists to prevent.
func TestQuiescenceLeaseWake(t *testing.T) {
	const durationS = 300
	build := func(t *testing.T) *Cluster {
		c := quiesceBase(t, 4, durationS)
		c.Coord = &Coordination{Transport: &leaseFakeTransport{
			capW: 115, floorW: 88, failNode: "node-000", failFromEpoch: 2}, EpochS: 60}
		return c
	}
	checkQuiesce(t, build, durationS, func(c *Cluster) { c.testDropLeaseWakes = true })
}

// TestFlappingPartitionBackoffNoReset pins the readmission backoff
// under flapping node partitions: a node that drops out again while
// still serving its doubled readmission probation must not have the
// backoff reset — the streak restarts, the bar stays doubled. Journal-
// pinned and cross-engine.
func TestFlappingPartitionBackoffNoReset(t *testing.T) {
	const durationS = 600
	timeline := func(eng Engine) []obs.Event {
		sink := obs.New(0)
		c := quiesceBase(t, 4, durationS)
		c.Health = HealthOptions{ReadmitAfter: 30}
		c.SetFaultPlans(nil, faults.Manual(durationS,
			faults.Episode{Kind: faults.NodeCrash, Start: 100, End: 115},
			// Second outage: evicts again, doubling the readmission bar.
			faults.Episode{Kind: faults.NodeCrash, Start: 200, End: 215},
			// Third outage opens mid-probation (the alive streak since the
			// second recovery is shorter than the doubled bar, so the node
			// is still evicted): no new eviction, and the doubled bar must
			// survive the flap rather than reset.
			faults.Episode{Kind: faults.NodeCrash, Start: 240, End: 255},
		))
		c.SetObs(sink)
		c.Engine = eng
		c.Run(quiesceFlatTrace(durationS), durationS)
		var evs []obs.Event
		for _, ev := range sink.Journal.Since(0) {
			if ev.Type == obs.EventNodeEvicted || ev.Type == obs.EventNodeReadmitted {
				evs = append(evs, ev)
			}
		}
		return evs
	}
	stepEvs := timeline(EngineStep)
	eventEvs := timeline(EngineEvent)
	if len(eventEvs) != len(stepEvs) {
		t.Fatalf("engines disagree on health event count: %d vs %d", len(stepEvs), len(eventEvs))
	}
	for i := range stepEvs {
		s, e := stepEvs[i], eventEvs[i]
		if s.T != e.T || s.Type != e.Type || s.Node != e.Node {
			t.Fatalf("health event %d differs across engines: step %s@%.0f vs event %s@%.0f",
				i, s.Type, s.T, e.Type, e.T)
		}
	}
	// Exactly four events: evict, readmit (base bar), evict (doubled
	// bar), readmit. The third outage must NOT add an eviction (the node
	// was still serving probation) and must NOT shrink the bar.
	if len(stepEvs) != 4 {
		var got []string
		for _, ev := range stepEvs {
			got = append(got, fmt.Sprintf("%s@%.0f", ev.Type, ev.T))
		}
		t.Fatalf("expected evict/readmit/evict/readmit, got %v", got)
	}
	// The first readmission pays the base bar from the first recovery
	// (t=116); the last pays the doubled bar from the LAST recovery
	// (t=256). A detector that reset its backoff when the partition
	// re-opened mid-probation would readmit a base bar after 256.
	baseBar := stepEvs[1].T - 116
	lastBar := stepEvs[3].T - 256
	if lastBar < 2*baseBar-1 {
		t.Errorf("backoff reset by the mid-probation flap: base bar %.0f s, final bar %.0f s (want ≥ %.0f)",
			baseBar, lastBar, 2*baseBar-1)
	}
}
