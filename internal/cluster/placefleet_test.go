package cluster

import (
	"os"
	"path/filepath"
	"testing"

	"sturgeon/internal/obs"
	"sturgeon/internal/workload"
)

// placeScenarioCluster builds one arm of the pinned placement-pair
// scenario without running it, so the batteries below can select the
// engine and parallelism before Run.
func placeScenarioCluster(t *testing.T, placed bool, parallelism int, sink *obs.Sink) (*Cluster, workload.Trace, int) {
	t.Helper()
	o := DefaultPlacementFleet(20260806)
	o.Placed = placed
	c, err := BuildPlacementFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	c.Parallelism = parallelism
	c.SetObs(sink)
	return c, o.Trace(), o.DurationS
}

// placeScenario runs one arm end to end.
func placeScenario(t *testing.T, placed bool, parallelism int) Result {
	t.Helper()
	c, tr, d := placeScenarioCluster(t, placed, parallelism, nil)
	return c.Run(tr, d)
}

// TestGoldenPlacementSummary pins the placed arm of the scenario to a
// checked-in fixture: any drift in the pair scorer, the solver, the
// migration planner or the warm-up accounting shifts the summary and
// fails the diff (`go test ./internal/cluster -run Golden -update` to
// regenerate intentionally).
func TestGoldenPlacementSummary(t *testing.T) {
	got := placeScenario(t, true, 1).Summary()
	path := filepath.Join("testdata", "placement_summary.golden")
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
		t.Errorf("placement summary drifted from golden fixture.\n--- got ---\n%s--- want ---\n%s"+
			"(if the change is intentional, regenerate with `go test ./internal/cluster -run Golden -update`)",
			got, want)
	}
}

// TestPlacementBeatsRandomPairing is the scenario's reason to exist:
// on the same fleet, same jobs, same flash-crowd day, the placement
// engine must beat the seeded random pairing on fleet BE throughput
// without giving up QoS — and the migration planner must actually have
// fired (the rotating hot spot forces moves mid-run).
func TestPlacementBeatsRandomPairing(t *testing.T) {
	random := placeScenario(t, false, 1)
	placed := placeScenario(t, true, 1)
	if placed.MeanBEThroughputUPS <= random.MeanBEThroughputUPS {
		t.Errorf("placement does not beat random pairing on BE throughput: %.2f vs %.2f UPS",
			placed.MeanBEThroughputUPS, random.MeanBEThroughputUPS)
	}
	if placed.QoSRate < random.QoSRate {
		t.Errorf("placement sacrifices QoS: %.6f vs random %.6f", placed.QoSRate, random.QoSRate)
	}
	if random.Placed || random.Place.Plans != 0 {
		t.Errorf("random arm ran the placement engine: %+v", random.Place)
	}
	o := DefaultPlacementFleet(20260806)
	if wantPlans := o.DurationS / o.EpochS; placed.Place.Plans != wantPlans {
		t.Errorf("placed arm ran %d planner epochs, want %d", placed.Place.Plans, wantPlans)
	}
	if placed.Place.Moves == 0 {
		t.Error("the pinned scenario produced no migrations — the planner never fired")
	}
	if placed.Place.Moves != placed.Place.StarvedMoves+placed.Place.ConsolidateMoves {
		t.Errorf("move reasons do not add up: %+v", placed.Place)
	}
	if placed.Place.Moves > 0 && placed.Place.WarmupLostUPS <= 0 {
		t.Error("migrations happened but no warm-up penalty was charged")
	}
}

// TestPlacementWinGate holds the win at a node-stepping fan-out of 4:
// the parallel fleet must still rank placement strictly above random
// pairing on BE throughput at an equal-or-better QoS rate.
func TestPlacementWinGate(t *testing.T) {
	random := placeScenario(t, false, 4)
	placed := placeScenario(t, true, 4)
	t.Logf("random: qos %.6f be %.2f | placed: qos %.6f be %.2f",
		random.QoSRate, random.MeanBEThroughputUPS, placed.QoSRate, placed.MeanBEThroughputUPS)
	if placed.MeanBEThroughputUPS <= random.MeanBEThroughputUPS {
		t.Errorf("placement does not beat random pairing at parallelism 4: %.2f vs %.2f UPS",
			placed.MeanBEThroughputUPS, random.MeanBEThroughputUPS)
	}
	if placed.QoSRate < random.QoSRate {
		t.Errorf("placement sacrifices QoS at parallelism 4: %.6f vs random %.6f", placed.QoSRate, random.QoSRate)
	}
}

// TestPlacementParallelismByteIdentical pins the acceptance criterion
// that both arms are byte-identical at any node-stepping fan-out: the
// planner runs in the serial merge, so worker count must change
// wall-clock time only.
func TestPlacementParallelismByteIdentical(t *testing.T) {
	for _, placed := range []bool{false, true} {
		ref := placeScenario(t, placed, 1).Summary()
		for _, par := range []int{2, 4, 8} {
			if got := placeScenario(t, placed, par).Summary(); got != ref {
				t.Fatalf("placed=%v summary diverges at parallelism %d.\n--- par=1 ---\n%s--- par=%d ---\n%s",
					placed, par, ref, par, got)
			}
		}
	}
}

// TestPlacementEngineEquivalence pins the cross-engine half: the
// discrete-event engine must reproduce per-second stepping byte for byte
// on both arms, migrations included.
func TestPlacementEngineEquivalence(t *testing.T) {
	run := func(placed bool, eng Engine) string {
		c, tr, d := placeScenarioCluster(t, placed, 1, nil)
		c.Engine = eng
		return c.Run(tr, d).Summary()
	}
	for _, placed := range []bool{false, true} {
		step := run(placed, EngineStep)
		event := run(placed, EngineEvent)
		if step != event {
			t.Fatalf("placed=%v engines diverge.\n--- step ---\n%s--- event ---\n%s", placed, step, event)
		}
	}
}

// badAssignment strands the frequency-hungry jobs (0–3) on
// power-starved nodes and the memory-bound ones (4–7) on rich and mid
// nodes — the exact inversion of the preference-aware answer.
func badAssignment(o PlacementFleetOptions) []int {
	nodeOf := make([]int, len(o.Jobs()))
	starved, rich := 0, 0
	for i := 0; i < o.Nodes; i++ {
		switch i % 4 {
		case 1, 3:
			if starved < 4 {
				nodeOf[starved] = i
				starved++
			}
		default:
			if rich < 4 {
				nodeOf[4+rich] = i
				rich++
			}
		}
	}
	return nodeOf
}

// TestPlacementMigrationRecovery hands the planner the inverted
// assignment and requires it to climb out: moves must fire, every move
// must conserve jobs (the live host table stays a partial injection
// throughout — enforced by applyMove, witnessed here via the journal),
// and the recovered fleet must land within reach of the solver-seeded
// arm rather than the random baseline.
func TestPlacementMigrationRecovery(t *testing.T) {
	o := DefaultPlacementFleet(20260806)
	o.Placed = true
	o.ForceAssign = badAssignment(o)
	sink := obs.New(0)
	c, err := BuildPlacementFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	c.Parallelism = 1
	c.SetObs(sink)
	res := c.Run(o.Trace(), o.DurationS)

	if res.Place.Moves == 0 {
		t.Fatal("planner never moved a job off the inverted assignment")
	}
	// Conservation after the whole run: every job hosted exactly once.
	hostOf := c.Place.HostOf()
	seen := make(map[int]int)
	for node, j := range hostOf {
		if j < 0 {
			continue
		}
		if prev, dup := seen[j]; dup {
			t.Fatalf("job %d hosted by nodes %d and %d", j, prev, node)
		}
		seen[j] = node
	}
	if len(seen) != len(o.Jobs()) {
		t.Fatalf("%d of %d jobs survive in the host table", len(seen), len(o.Jobs()))
	}
	// The journal's migration trail must match the counters and replay
	// to the same final host table.
	migrations := 0
	for _, ev := range sink.Journal.Since(0) {
		if ev.Type == obs.EventMigration {
			migrations++
		}
	}
	if migrations != res.Place.Moves {
		t.Errorf("journal records %d migrations, counters %d", migrations, res.Place.Moves)
	}
	// Recovery quality: the planner can't fully undo a warm-up-taxed bad
	// start, but it must beat leaving the inversion in place.
	stuck := o
	stuck.ForceAssign = badAssignment(o)
	cs, err := BuildPlacementFleet(stuck)
	if err != nil {
		t.Fatal(err)
	}
	cs.Parallelism = 1
	cs.Place.Planner = nil // same inverted start, no migrations
	frozen := cs.Run(o.Trace(), o.DurationS)
	if res.MeanBEThroughputUPS <= frozen.MeanBEThroughputUPS {
		t.Errorf("migrations did not pay: recovered %.2f UPS vs frozen inversion %.2f",
			res.MeanBEThroughputUPS, frozen.MeanBEThroughputUPS)
	}
}

// TestQuiescencePlacementWake proves KindPlacement is load-bearing in
// the event engine. The variant fleet runs round-robin dispatch on a
// flat trace — so after the governors settle, the whole fleet is
// quiescent and replicable — with the inverted assignment, so the first
// planning epoch fires a migration deep inside the quiescent stretch.
// The real event engine must match per-second stepping byte for byte;
// an engine with placement wake-ups suppressed must visibly diverge
// (the plan epochs and the move simply never happen inside a skip).
func TestQuiescencePlacementWake(t *testing.T) {
	const durationS = 200
	build := func(t *testing.T) *Cluster {
		o := DefaultPlacementFleet(20260806)
		o.SkewAmp = 0 // RoundRobin: steady shares, replication allowed
		o.DurationS = durationS
		o.Burst.Bursts = 0 // flat day: breaks only at t=0
		o.Burst.BaseLo, o.Burst.BaseHi = 0.35, 0.35
		o.Placed = true
		o.ForceAssign = badAssignment(o)
		c, err := BuildPlacementFleet(o)
		if err != nil {
			t.Fatal(err)
		}
		c.Parallelism = 1
		return c
	}
	o := DefaultPlacementFleet(20260806)
	o.DurationS = durationS
	o.Burst.Bursts = 0
	o.Burst.BaseLo, o.Burst.BaseHi = 0.35, 0.35
	tr := o.Trace()
	run := func(eng Engine, stub func(*Cluster)) (Result, string) {
		c := build(t)
		c.Engine = eng
		if stub != nil {
			stub(c)
		}
		res := c.Run(tr, durationS)
		return res, res.Summary()
	}
	stepRes, stepSum := run(EngineStep, nil)
	if stepRes.Place.Moves == 0 {
		t.Fatal("flat-day inversion produced no migration — the wake-up scenario is vacuous")
	}
	if _, eventSum := run(EngineEvent, nil); eventSum != stepSum {
		t.Fatalf("real event engine diverges on a migrating fleet.\n--- step ---\n%s--- event ---\n%s",
			stepSum, eventSum)
	}
	if _, brokenSum := run(EngineEvent, func(c *Cluster) { c.testDropPlaceWakes = true }); brokenSum == stepSum {
		t.Fatal("suppressing placement wake-ups changed nothing — the epoch never fell inside a skip")
	}
}
