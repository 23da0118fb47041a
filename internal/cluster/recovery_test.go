package cluster

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sturgeon/internal/coordinator"
	"sturgeon/internal/obs"
	"sturgeon/internal/workload"
)

// crashGoldenScenario is the pinned coordinator crash/restart fleet:
// the default coordinated diurnal scenario with a six-epoch coordinator
// kill window centered mid-run, the coordinator running behind
// MemStore-backed write-ahead persistence and recovering from
// snapshot + record log at the window's end. Its summary lives in
// testdata/coord_crash_summary.golden.
func crashGoldenScenario(t *testing.T, parallelism int, sink *obs.Sink) (*Cluster, Result) {
	t.Helper()
	c, tr, duration := crashGoldenScenarioCluster(t, parallelism, sink)
	return c, c.Run(tr, duration)
}

// crashGoldenScenarioCluster builds the crash/restart fleet without
// running it (for the cross-engine equivalence battery).
func crashGoldenScenarioCluster(t *testing.T, parallelism int, sink *obs.Sink) (*Cluster, workload.Trace, int) {
	t.Helper()
	o := DefaultCoordFleet(20260807)
	o.Coordinated = true
	o.CrashRestart = true
	c, err := BuildCoordFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	c.Parallelism = parallelism
	c.SetObs(sink)
	return c, o.Trace(), o.DurationS
}

func TestGoldenCoordCrashSummary(t *testing.T) {
	_, res := crashGoldenScenario(t, 1, nil)
	got := res.Summary()
	path := filepath.Join("testdata", "coord_crash_summary.golden")
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
		t.Errorf("crash/restart fleet summary drifted from golden fixture.\n--- got ---\n%s--- want ---\n%s"+
			"(if the change is intentional, regenerate with `go test ./internal/cluster -run Golden -update`)",
			got, want)
	}
}

// TestCoordCrashParallelismByteIdentical pins the acceptance criterion:
// the seeded crash/restart run — kill, recovery, replay and all — is
// byte-identical at every node-stepping fan-out, because the whole
// coordination path (including the MemStore appends and the Recover
// call) lives in Run's serial merge.
func TestCoordCrashParallelismByteIdentical(t *testing.T) {
	_, ref := crashGoldenScenario(t, 1, nil)
	refSum := ref.Summary()
	for _, par := range []int{2, 4, 8} {
		_, res := crashGoldenScenario(t, par, nil)
		if got := res.Summary(); got != refSum {
			t.Fatalf("crash/restart summary diverges at parallelism %d.\n--- par=1 ---\n%s--- par=%d ---\n%s",
				par, refSum, par, got)
		}
	}
}

// TestCoordCrashRecoveryAccounting checks the crash window's visible
// footprint: six epochs lost whole, exactly one recovery, the
// coord_crash summary line present, and the recovered coordinator's
// post-run status conserving the budget with every cap in clamp.
func TestCoordCrashRecoveryAccounting(t *testing.T) {
	sink := obs.New(0)
	c, res := crashGoldenScenario(t, 1, sink)

	if res.Coord.CrashEpochs != 6 {
		t.Errorf("crash epochs %d, want 6", res.Coord.CrashEpochs)
	}
	if res.Coord.Recoveries != 1 {
		t.Errorf("recoveries %d, want 1", res.Coord.Recoveries)
	}
	if res.Coord.Fallbacks < 6*len(c.Nodes) {
		t.Errorf("fallbacks %d below the crash floor %d", res.Coord.Fallbacks, 6*len(c.Nodes))
	}
	if !strings.Contains(res.Summary(), "coord_crash epochs 6 recoveries 1\n") {
		t.Errorf("summary missing the coord_crash line:\n%s", res.Summary())
	}

	// The recovered coordinator must still conserve the budget exactly
	// and keep every cap inside the grant clamp.
	o := DefaultCoordFleet(20260807)
	st, err := c.Coord.Transport.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	budget := o.EvenCapW * float64(o.Nodes)
	sum := st.PoolW
	for _, n := range st.Nodes {
		sum += n.CapW
		if n.CapW < o.MinCapW-1e-9 || n.CapW > o.MaxCapW+1e-9 {
			t.Errorf("node %s cap %.2f W outside clamp [%.0f, %.0f]",
				n.NodeID, n.CapW, o.MinCapW, o.MaxCapW)
		}
	}
	if math.Abs(sum-budget) > 1e-6 {
		t.Errorf("recovered fleet does not conserve the budget: caps+pool %.4f W vs %.1f W", sum, budget)
	}
	if len(st.Nodes) != o.Nodes {
		t.Errorf("recovered status lists %d nodes, want %d", len(st.Nodes), o.Nodes)
	}

	// Observability: one fleet-level recovery counted and journaled, with
	// a recovery reason from the documented ladder.
	if got := sink.Metrics.Counter("fleet_coord_recoveries_total").Value(); got != 1 {
		t.Errorf("fleet_coord_recoveries_total = %d, want 1", got)
	}
	var recEvents []obs.Event
	for _, ev := range sink.Journal.Since(0) {
		if ev.Type == obs.EventRecoveryCompleted {
			recEvents = append(recEvents, ev)
		}
	}
	if len(recEvents) != 1 {
		t.Fatalf("journal carries %d recovery events, want 1", len(recEvents))
	}
	switch recEvents[0].Reason {
	case "clean", "no_snapshot", "torn_log":
		// Non-degraded recovery paths: the store was healthy.
	default:
		t.Errorf("recovery degraded inside the clean-store scenario: %q", recEvents[0].Reason)
	}
	epochs := DefaultCoordFleet(0).DurationS / DefaultCoordFleet(0).EpochS
	if restart := recEvents[0].Epoch; restart != epochs/2+6 {
		t.Errorf("recovery at epoch %d, want %d (end of the kill window)", restart, epochs/2+6)
	}
}

// TestCoordCrashRecoveryMatchesUnkilledGrants is the exact-recovery
// property at fleet scale: because recovery replays the write-ahead log
// into the same pure state machine, a fleet whose coordinator was
// killed and recovered must end with a *valid* grant schedule — and
// every epoch after the recovery must keep epoch numbering monotone
// (the recovered coordinator never hands out grants from a rewound
// epoch).
func TestCoordCrashRecoveryMatchesUnkilledGrants(t *testing.T) {
	sink := obs.New(0)
	_, res := crashGoldenScenario(t, 1, sink)
	if !res.Coordinated || res.Coord.Recoveries != 1 {
		t.Fatalf("scenario did not recover: %+v", res.Coord)
	}
	// Grant events carry the arbitration epoch; after the restart epoch
	// they must resume at or above the pre-crash epoch, never below.
	var maxBefore, restartEpoch int
	for _, ev := range sink.Journal.Since(0) {
		if ev.Type == obs.EventRecoveryCompleted {
			restartEpoch = ev.Epoch
		}
	}
	if restartEpoch == 0 {
		t.Fatal("no recovery event journaled")
	}
	for _, ev := range sink.Journal.Since(0) {
		if ev.Type != obs.EventCapGranted {
			continue
		}
		if ev.Epoch < restartEpoch {
			if ev.Epoch > maxBefore {
				maxBefore = ev.Epoch
			}
			continue
		}
		if ev.Epoch < maxBefore {
			t.Fatalf("post-recovery grant at epoch %d below pre-crash epoch %d: recovery rewound time",
				ev.Epoch, maxBefore)
		}
	}
}

// TestCoordFailedRestartStaysDown: a coordinator whose restart fails
// stays down — retried every epoch — until a restart succeeds. It must
// never fall back to the transport it had before the kill, whose
// in-memory coordinator never died.
func TestCoordFailedRestartStaysDown(t *testing.T) {
	const killStart = 48 // the crash fleet's window is epochs [48, 54)
	for _, tc := range []struct {
		name          string
		failures      int // restarts that fail before one succeeds; <0 = all
		crashEpochs   int
		recoveryEpoch int // 0 = never recovers
	}{
		{"fails-twice", 2, 8, 56},
		{"always-fails", -1, 96 - killStart + 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := obs.New(0)
			c, tr, duration := crashGoldenScenarioCluster(t, 1, sink)
			restart, calls := c.Coord.Restart, 0
			c.Coord.Restart = func() (coordinator.Transport, coordinator.RecoveryInfo, error) {
				calls++
				if tc.failures < 0 || calls <= tc.failures {
					return nil, coordinator.RecoveryInfo{}, errors.New("state dir unreadable")
				}
				return restart()
			}
			res := c.Run(tr, duration)
			wantRecoveries := 0
			if tc.recoveryEpoch > 0 {
				wantRecoveries = 1
			}
			if res.Coord.CrashEpochs != tc.crashEpochs || res.Coord.Recoveries != wantRecoveries {
				t.Errorf("crash epochs %d recoveries %d, want %d and %d",
					res.Coord.CrashEpochs, res.Coord.Recoveries, tc.crashEpochs, wantRecoveries)
			}
			recovered := 0
			for _, ev := range sink.Journal.Since(0) {
				switch {
				case ev.Type == obs.EventRecoveryCompleted:
					recovered = ev.Epoch
				case ev.Type == obs.EventCapGranted && ev.Epoch >= killStart &&
					(tc.recoveryEpoch == 0 || ev.Epoch < tc.recoveryEpoch):
					t.Fatalf("grant at epoch %d while the coordinator was down", ev.Epoch)
				}
			}
			if recovered != tc.recoveryEpoch {
				t.Errorf("recovery at epoch %d, want %d", recovered, tc.recoveryEpoch)
			}
		})
	}
}
