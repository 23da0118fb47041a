package faults

import (
	"math"
	"testing"
)

func TestNetPlanDeterministic(t *testing.T) {
	spec := DefaultNetSpec()
	a := NewNet(spec, 42, 50, 4)
	b := NewNet(spec, 42, 50, 4)
	if !netPlansEqual(a, b, 50, 4) {
		t.Fatal("same (spec, seed, epochs, nodes) produced different schedules")
	}
	c := NewNet(spec, 43, 50, 4)
	if netPlansEqual(a, c, 50, 4) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func netPlansEqual(a, b *NetPlan, epochs, nodes int) bool {
	for e := 0; e <= epochs+1; e++ {
		if a.ReorderedFlush(e) != b.ReorderedFlush(e) {
			return false
		}
		for n := -1; n <= nodes; n++ {
			if a.PartitionedOut(e, n) != b.PartitionedOut(e, n) ||
				a.PartitionedIn(e, n) != b.PartitionedIn(e, n) ||
				a.Dropped(e, n) != b.Dropped(e, n) ||
				a.Delayed(e, n) != b.Delayed(e, n) ||
				a.Duplicated(e, n) != b.Duplicated(e, n) {
				return false
			}
		}
	}
	return true
}

func TestManualNetCanonicalizes(t *testing.T) {
	p := ManualNet(10, 2,
		NetWindow{Node: 0, Dir: DirReport, Start: -5, End: 3}, // clamped to [1, 3)
		NetWindow{Node: 0, Dir: DirReport, Start: 3, End: 99}, // touching: merged, clamped to 11
		NetWindow{Node: 1, Dir: DirGrant, Start: 4, End: 6},   //
		NetWindow{Node: 1, Dir: DirGrant, Start: 5, End: 8},   // overlapping: merged
		NetWindow{Node: 7, Dir: DirReport, Start: 1, End: 9},  // node out of range: dropped
		NetWindow{Node: 1, Dir: DirReport, Start: 6, End: 6},  // empty: dropped
		NetWindow{Node: -1, Dir: DirReport, Start: 1, End: 9}, // negative node: dropped
	)
	for e := 1; e <= 10; e++ {
		if !p.PartitionedOut(e, 0) {
			t.Fatalf("node 0 report dir not severed at epoch %d after merge", e)
		}
	}
	if p.PartitionedOut(11, 0) || p.PartitionedOut(0, 0) {
		t.Fatal("severed outside [1, epochs]")
	}
	for e := 4; e < 8; e++ {
		if !p.PartitionedIn(e, 1) {
			t.Fatalf("node 1 grant dir not severed at epoch %d", e)
		}
	}
	if p.PartitionedIn(8, 1) || p.PartitionedOut(6, 1) || p.PartitionedOut(2, 7) {
		t.Fatal("dropped windows left traces")
	}
	if p.Empty() {
		t.Fatal("plan with windows claims to be empty")
	}
}

func TestNetPlanNilAndEmpty(t *testing.T) {
	var p *NetPlan
	if p.PartitionedOut(1, 0) || p.PartitionedIn(1, 0) || p.Dropped(1, 0) ||
		p.Delayed(1, 0) || p.Duplicated(1, 0) || p.ReorderedFlush(1) {
		t.Fatal("nil plan imposed a fate")
	}
	if !p.Empty() {
		t.Fatal("nil plan not empty")
	}
	if !NewNet(NetSpec{}, 1, 100, 8).Empty() {
		t.Fatal("zero spec materialized chaos")
	}
}

func TestNewNetHostileRatesClamp(t *testing.T) {
	hostile := NetSpec{
		PartitionRate:       2,
		MeanPartitionEpochs: -3,
		DropRate:            math.NaN(),
		DelayRate:           -1,
		DupRate:             1e308,
		ReorderRate:         math.NaN(),
	}
	p := NewNet(hostile, 9, 20, 3)
	// PartitionRate 2 clamps to 1: a window always opens at epoch 1 on
	// every node (in at least one direction); NaN/negative rates clamp
	// to 0 so the per-message fates stay empty.
	for n := 0; n < 3; n++ {
		if !p.PartitionedOut(1, n) && !p.PartitionedIn(1, n) {
			t.Fatalf("node %d epoch 1 escaped a rate-1 partition", n)
		}
		for e := 1; e <= 20; e++ {
			if p.Delayed(e, n) {
				t.Fatal("negative delay rate materialized")
			}
			if p.Dropped(e, n) {
				t.Fatal("NaN drop rate materialized")
			}
			if !p.Duplicated(e, n) {
				t.Fatal("over-range dup rate should clamp to 1, duplicating every message")
			}
		}
	}
}

// FuzzNetPlanDecode hammers the net-chaos constructor with raw NetSpec
// knobs (NaN, ±Inf and negatives included): any spec must materialize
// (without panicking) into a plan that is deterministic and keeps every
// fate inside the run's (epoch, node) box no matter how hostile the
// knobs.
func FuzzNetPlanDecode(f *testing.F) {
	f.Add(0.02, 2.0, 0.05, 0.05, 0.05, 0.25, int64(1), 50, 8)
	f.Add(0.02, 2.0, 0.05, 0.05, 0.05, 0.25, int64(42), 96, 8) // DefaultNetSpec
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, int64(0), 0, 0)
	f.Add(1.0, math.NaN(), 0.0, 0.0, 0.0, 0.0, int64(-9), 30, 2)
	f.Add(0.0, 0.0, math.Inf(1), -5.0, 1e308, 2.0, int64(7), 10, -3)
	f.Fuzz(func(t *testing.T, partition, dur, drop, delay, dup, reorder float64, seed int64, epochs, nodes int) {
		spec := NetSpec{
			PartitionRate:       partition,
			MeanPartitionEpochs: dur,
			DropRate:            drop,
			DelayRate:           delay,
			DupRate:             dup,
			ReorderRate:         reorder,
		}
		if epochs > 512 {
			epochs %= 512 // keep fuzz iterations fast
		}
		if nodes > 64 {
			nodes %= 64
		}
		p := NewNet(spec, seed, epochs, nodes)
		if p.Epochs < 0 || p.Nodes < 0 {
			t.Fatalf("negative bounds survived: %+v", p)
		}
		if !netPlansEqual(p, NewNet(spec, seed, epochs, nodes), p.Epochs, p.Nodes) {
			t.Fatal("plan is not a pure function of its inputs")
		}
		// No fate outside the run's box: epoch 0, epoch Epochs+1, and
		// out-of-range nodes are always quiet.
		for n := -1; n <= p.Nodes; n++ {
			edge := n < 0 || n >= p.Nodes
			for _, e := range []int{0, p.Epochs + 1} {
				if p.PartitionedOut(e, n) || p.PartitionedIn(e, n) || p.Dropped(e, n) ||
					p.Delayed(e, n) || p.Duplicated(e, n) {
					t.Fatalf("fate outside epoch range at (%d, %d)", e, n)
				}
			}
			if edge {
				for e := 1; e <= p.Epochs; e++ {
					if p.PartitionedOut(e, n) || p.PartitionedIn(e, n) || p.Dropped(e, n) ||
						p.Delayed(e, n) || p.Duplicated(e, n) {
						t.Fatalf("fate for out-of-range node at (%d, %d)", e, n)
					}
				}
			}
		}
	})
}
