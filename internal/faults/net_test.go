package faults

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
	if p.PartitionedOut(1, 0) || p.PartitionedIn(1, 0) ||
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
			if !p.Duplicated(e, n) {
				t.Fatal("over-range dup rate should clamp to 1, duplicating every message")
			}
		}
	}
	// Drops are report windows, hidden above by the rate-1 partitions.
	if !NewNet(NetSpec{DropRate: math.NaN()}, 9, 20, 3).Empty() {
		t.Fatal("NaN drop rate materialized")
	}
}

// TestNetDropsAreReportWindows pins the report-loss set NewNet draws:
// every (epoch, node) whose report never reaches the coordinator, from
// a partition window or a drawn drop. The digests were taken from the
// plan when drops still lived in their own map, so storing each drop as
// a one-epoch report window must leave the rng stream and the loss set
// unchanged.
func TestNetDropsAreReportWindows(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec NetSpec
		seed int64
		lost int
		want string
	}{
		{"default", DefaultNetSpec(), 1, 49, "80f78a984d66c8edf52ee67d344368808c6f80ac71e4f9fc38bde6c8a711330f"},
		{"default", DefaultNetSpec(), 7, 41, "982f6ebf6caace176f5dbdba1d00fa10b1c828e675ec9336cef1512563283bcf"},
		{"default", DefaultNetSpec(), 42, 52, "f976f2543af37d475f1f741ffbddefb730194383812c44e718e1f80036272436"},
		{"default", DefaultNetSpec(), 20260808, 49, "35f617b9d970a03aa33146016804b5f12318f7fb2af692dd957f717124eebef1"},
		{"drop-only", NetSpec{DropRate: 0.1}, 1, 84, "67fab9f716fe728f6f6e6b32c357f432d0702209aac61b3fcbf2e284b9fb820b"},
		{"drop-only", NetSpec{DropRate: 0.1}, 7, 65, "6f858a283fa82f80c5177f90f4a5416907f4e169fb09c00cfba49bdb27a47103"},
		{"drop-only", NetSpec{DropRate: 0.1}, 42, 81, "c2b8dfab7a94a56f9140c9e989b60786dead5b8aff3b6465aba36a8e1ee26ffb"},
		{"drop-only", NetSpec{DropRate: 0.1}, 20260808, 64, "7634c8e6d02e633e30f15102d19858145388529cc698c67810386910aecde190"},
	} {
		p := NewNet(tc.spec, tc.seed, 96, 8)
		h := sha256.New()
		lost := 0
		for n := 0; n < 8; n++ {
			for e := 1; e <= 96; e++ {
				if p.PartitionedOut(e, n) {
					lost++
					fmt.Fprintf(h, "%d,%d\n", e, n)
				}
				if tc.spec.PartitionRate == 0 && p.PartitionedIn(e, n) {
					t.Fatalf("%s seed %d: a drop severed the grant direction at (%d, %d)", tc.name, tc.seed, e, n)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); lost != tc.lost || got != tc.want {
			t.Errorf("%s seed %d: %d lost reports digest %s, want %d digest %s",
				tc.name, tc.seed, lost, got, tc.lost, tc.want)
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
				if p.PartitionedOut(e, n) || p.PartitionedIn(e, n) ||
					p.Delayed(e, n) || p.Duplicated(e, n) {
					t.Fatalf("fate outside epoch range at (%d, %d)", e, n)
				}
			}
			if edge {
				for e := 1; e <= p.Epochs; e++ {
					if p.PartitionedOut(e, n) || p.PartitionedIn(e, n) ||
						p.Delayed(e, n) || p.Duplicated(e, n) {
						t.Fatalf("fate for out-of-range node at (%d, %d)", e, n)
					}
				}
			}
		}
	})
}
