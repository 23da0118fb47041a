package invariant

import (
	"strings"
	"testing"

	"sturgeon/internal/coordinator"
)

// budgetW is the fleet budget every case runs against; tolW is the
// tolerance New derives from it.
const (
	budgetW = 400.0
	tolW    = 1e-6 * budgetW
)

// status builds a coordinator status document with the given book.
func status(epoch int, budget, poolW float64, nodes ...coordinator.NodeStatus) *coordinator.FleetStatus {
	return &coordinator.FleetStatus{
		Schema: coordinator.Schema, Epoch: epoch, BudgetW: budget, PoolW: poolW, Nodes: nodes,
	}
}

// TestCheckerRules seeds one violation at every rule the checker
// enforces, past its bound by fire, and a twin offset by clean that sits
// just inside the bound and must stay silent.
func TestCheckerRules(t *testing.T) {
	for _, rule := range []struct {
		name        string
		want        string  // substring of the single violation fire seeds
		fire, clean float64 // offsets past the rule's bound
		seed        func(k *Checker, d float64)
	}{{
		name: "lease bound", want: "above lease", fire: 2 * tolW, clean: tolW / 2,
		seed: func(k *Checker, d float64) {
			k.CheckSecond(1, []NodeView{{ID: "n0", EffCapW: 100 + d, LeaseCapW: 100}})
		},
	}, {
		name: "degraded floor past expiry", want: "above floor", fire: 2 * tolW, clean: tolW / 2,
		seed: func(k *Checker, d float64) {
			// Before the expiry the degraded node may still hold its lease.
			n := NodeView{ID: "n0", EffCapW: 120, LeaseCapW: 120, FloorW: 100, Degraded: true, ExpiresAtS: 10}
			k.CheckSecond(9, []NodeView{n})
			n.EffCapW = 100 + d
			k.CheckSecond(10, []NodeView{n})
		},
	}, {
		name: "effective caps over budget", want: "exceeds budget", fire: 2 * tolW, clean: tolW / 2,
		seed: func(k *Checker, d float64) {
			k.CheckSecond(1, []NodeView{{ID: "n0", EffCapW: 200}, {ID: "n1", EffCapW: 200 + d}})
		},
	}, {
		// The coordinator reclaimed 20 W from n0 and granted them to n1;
		// n0 has not heard yet, so the 20 W it still holds are in flight.
		// n2, which the coordinator has not booked, runs on 10 W of the
		// pool. The slack excuses the 420 W sum, but not a watt more.
		name: "in-flight slack", want: "exceeds budget", fire: 2 * tolW, clean: tolW / 2,
		seed: func(k *Checker, d float64) {
			k.ObserveStatus(1, status(1, budgetW, 10,
				coordinator.NodeStatus{NodeID: "n0", CapW: 180},
				coordinator.NodeStatus{NodeID: "n1", CapW: 210}))
			k.CheckSecond(1, []NodeView{{ID: "n0", EffCapW: 200}, {ID: "n1", EffCapW: 210}, {ID: "n2", EffCapW: 10 + d}})
		},
	}, {
		name: "invalid status", want: "status invalid", fire: -2e-6, clean: -5e-7,
		seed: func(k *Checker, d float64) { k.ObserveStatus(1, status(1, budgetW, d)) },
	}, {
		name: "coordinator epoch backwards", want: "coordinator epoch moved backwards", fire: -1, clean: 0,
		seed: func(k *Checker, d float64) {
			k.ObserveStatus(1, status(5, budgetW, budgetW))
			k.ObserveStatus(2, status(5+int(d), budgetW, budgetW))
		},
	}, {
		name: "node epoch backwards", want: "node epoch moved backwards", fire: -1, clean: 0,
		seed: func(k *Checker, d float64) {
			k.ObserveStatus(1, status(5, budgetW, 300, coordinator.NodeStatus{NodeID: "n0", CapW: 100, LastEpoch: 5}))
			k.ObserveStatus(2, status(5, budgetW, 300, coordinator.NodeStatus{NodeID: "n0", CapW: 100, LastEpoch: 5 + int(d)}))
		},
	}, {
		// The status carries a larger budget of its own, so it validates
		// and only the checker's budget catches the over-allocation.
		name: "caps plus pool over budget", want: "exceed budget", fire: 2 * tolW, clean: tolW / 2,
		seed: func(k *Checker, d float64) {
			k.ObserveStatus(1, status(1, 2*budgetW, d,
				coordinator.NodeStatus{NodeID: "n0", CapW: 200},
				coordinator.NodeStatus{NodeID: "n1", CapW: 200}))
		},
	}} {
		t.Run(rule.name, func(t *testing.T) {
			k := New(budgetW, 0)
			rule.seed(k, rule.fire)
			if v := k.Violations(); len(v) != 1 || !strings.Contains(v[0], rule.want) {
				t.Errorf("seeded violation reported %q, want exactly one containing %q", v, rule.want)
			}
			twin := New(budgetW, 0)
			rule.seed(twin, rule.clean)
			if v := twin.Violations(); len(v) != 0 {
				t.Errorf("twin inside the bound reported %q", v)
			}
			if twin.Checks() == 0 || twin.Checks() != k.Checks() {
				t.Errorf("checks counted %d and %d, want the same nonzero count", k.Checks(), twin.Checks())
			}
		})
	}
}

// TestCheckerRetentionBound checks that violations past keep are
// counted, not stored, and that keep <= 0 retains the default 16.
func TestCheckerRetentionBound(t *testing.T) {
	for _, tc := range []struct{ keep, kept int }{{2, 2}, {0, 16}} {
		k := New(budgetW, tc.keep)
		for s := 0; s < 20; s++ {
			k.CheckSecond(float64(s), []NodeView{{ID: "n0", EffCapW: budgetW + 1}})
		}
		if len(k.Violations()) != tc.kept || k.DroppedViolations() != 20-tc.kept {
			t.Errorf("keep %d: %d retained + %d dropped, want %d + %d",
				tc.keep, len(k.Violations()), k.DroppedViolations(), tc.kept, 20-tc.kept)
		}
		if k.MaxSumCapsW() != budgetW+1 || k.MaxExcessW() != 1 {
			t.Errorf("keep %d: max Σcaps %v W, max excess %v W, want %v and 1", tc.keep, k.MaxSumCapsW(), k.MaxExcessW(), budgetW+1)
		}
	}
}
