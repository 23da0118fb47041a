package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"sturgeon/internal/faults"
	"sturgeon/internal/invariant"
)

// fleetStepDigest runs the repository benchmark's fleet-step scenario
// at its quick size (8 nodes × 60 s, coordinated, leased, with the
// control-plane chaos schedule, the default node fault mix and the
// budget-invariant checker attached) and returns a SHA-256 over the
// float bits of everything the run decides: every interval, the
// headline scalars, health and fault tallies, fallbacks, moved watts,
// the four lease tallies and the checker's cap-sum extremes. It leaves
// out the per-fate control-plane counters and Checks(), which count how
// a lost report is represented rather than what the fleet did.
func fleetStepDigest(t *testing.T, seed int64) string {
	t.Helper()
	o := DefaultCoordFleet(seed)
	o.Nodes, o.DurationS = 8, 60
	o.PeriodS = float64(o.DurationS)
	o.Coordinated, o.Leased, o.Chaos = true, true, true
	c, err := BuildCoordFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	c.Parallelism = 1
	c.InjectFaults(faults.DefaultSpec(), o.DurationS)
	inv := invariant.New(o.EvenCapW*float64(o.Nodes), 16)
	c.Invariants = inv
	res := c.Run(o.Trace(), o.DurationS)
	if v := inv.Violations(); len(v) != 0 || inv.DroppedViolations() != 0 {
		t.Fatalf("seed %d: %d budget-invariant violations (+%d dropped): %v",
			seed, len(v), inv.DroppedViolations(), v)
	}

	h := sha256.New()
	b := math.Float64bits
	for _, iv := range res.Intervals {
		fmt.Fprintf(h, "%x|%x|%x|%x|%x|%d|%x\n", b(iv.Time), b(iv.TotalQPS), b(iv.QoSFrac),
			b(iv.BEThroughputUPS), b(iv.PowerW), iv.OverloadedNodes, b(iv.CapSpreadW))
	}
	fmt.Fprintf(h, "%x|%x|%x|%x|%x|%x\n", b(res.QoSRate), b(res.MeanBEThroughputUPS),
		b(res.MeanPowerW), b(res.EnergyKJ), b(res.WorkPerKJ), b(res.LostQueries))
	fmt.Fprintf(h, "%+v|%+v\n", res.Health, res.Faults)
	cs := res.Coord
	fmt.Fprintf(h, "%d|%x|%d|%d|%d|%x\n", cs.Fallbacks, b(cs.MovedW),
		cs.DegradedEpisodes, cs.DegradedExits, cs.StaleGrantRejects, b(cs.LeaseRatchetW))
	fmt.Fprintf(h, "%x|%x\n", b(inv.MaxSumCapsW()), b(inv.MaxExcessW()))
	return hex.EncodeToString(h.Sum(nil))
}

// TestFleetStepScenarioDigest pins the benchmark's fleet-step scenario
// bit for bit at three seeds, so a change to how control-plane faults
// are scheduled or applied shows up here if it moves any decision.
func TestFleetStepScenarioDigest(t *testing.T) {
	want := map[int64]string{
		1:  "a6dc21aada1fe467ffa426d8323538f3146cf6b32a9d65ce7ec809a4aaa4e80b",
		7:  "29e510ce206f4075238a21ac6022da745cbfdef1112a872dac2df60aff78cb23",
		42: "da6abd0911cc9549c6d9f7c72852c0c095a842c4d1c6a79747519616b6abc7f1",
	}
	for _, seed := range []int64{1, 7, 42} {
		if got := fleetStepDigest(t, seed); got != want[seed] {
			t.Errorf("seed %d: fleet-step digest %s, want %s", seed, got, want[seed])
		}
	}
}
