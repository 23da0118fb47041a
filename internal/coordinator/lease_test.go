package coordinator

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sturgeon/internal/faults"
	"sturgeon/internal/jsonio"
)

// leasedOpt is the fenced-lease battery's arbitration config: three
// nodes on a 300 W budget with a two-epoch TTL. The default lease
// floor is the even split (100 W).
func leasedOpt() Options {
	return Options{BudgetW: 300, MinCapW: 50, MaxCapW: 150, FleetSize: 3, LeaseEpochs: 2}
}

func TestLeasedGrantCarriesFence(t *testing.T) {
	c := newTest(t, leasedOpt())
	var lastTok int64 = -1
	for e := 0; e < 4; e++ {
		g, err := c.Submit(report("a", e, 0.15, 80, 100))
		if err != nil {
			t.Fatal(err)
		}
		if g.LeaseEpochs != 2 {
			t.Fatalf("epoch %d: grant TTL %d, want 2", e, g.LeaseEpochs)
		}
		if g.FloorW != 100 {
			t.Fatalf("epoch %d: grant floor %.1f W, want the even split 100", e, g.FloorW)
		}
		// The fencing token increments once per APPLIED report — strictly
		// monotone, so any delayed duplicate carries an older token.
		if g.Token <= lastTok {
			t.Fatalf("epoch %d: token %d did not advance past %d", e, g.Token, lastTok)
		}
		lastTok = g.Token
	}
	if err := c.Status().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnleasedGrantCarriesNoFence(t *testing.T) {
	opt := leasedOpt()
	opt.LeaseEpochs = 0
	c := newTest(t, opt)
	g, err := c.Submit(report("a", 0, 0.15, 80, 100))
	if err != nil {
		t.Fatal(err)
	}
	if g.Token != 0 || g.LeaseEpochs != 0 || g.FloorW != 0 {
		t.Fatalf("legacy grant grew lease fields: %+v", g)
	}
}

// TestLeaseExpiryReclaimsAndRejoins drives the full lease lifecycle:
// a node goes dark, its lease expires at the TTL and the watts above
// the floor return to the pool (where the staleness fallback would
// have frozen them), and the node's eventual rejoin re-admits it
// through normal arbitration with its fencing token intact.
func TestLeaseExpiryReclaimsAndRejoins(t *testing.T) {
	c := newTest(t, leasedOpt())
	ids := []string{"a", "b", "c"}

	// Warm-up: c is pinned against its cap and wins watts from b, so
	// its book value sits above the lease floor when it goes dark.
	caps := map[string]float64{"a": 100, "b": 100, "c": 100}
	for e := 0; e < 4; e++ {
		for _, id := range ids {
			slack, pw := 0.15, 80.0
			switch id {
			case "b":
				slack, pw = 0.55, 62
			case "c":
				slack, pw = 0.04, caps[id]-0.5
			}
			g, err := c.Submit(report(id, e, slack, pw, caps[id]))
			if err != nil {
				t.Fatal(err)
			}
			caps[id] = g.CapW
		}
	}
	if caps["c"] <= 100 {
		t.Fatalf("node c never won watts (cap %.1f W); the reclaim would be vacuous", caps["c"])
	}
	lastTok := c.nodes["c"].leaseTok

	// c goes dark. After LeaseEpochs closed epochs its lease expires:
	// the cap above the floor is reclaimed, NOT frozen.
	for e := 4; e < 8; e++ {
		for _, id := range []string{"a", "b"} {
			if _, err := c.Submit(report(id, e, 0.15, 80, caps[id])); err != nil {
				t.Fatal(err)
			}
		}
		budgetConserved(t, c)
	}
	if c.stats.LeaseExpirations == 0 {
		t.Fatal("lease never expired")
	}
	if c.stats.StaleFreezes != 0 {
		t.Fatalf("leased coordinator took the freeze path %d times", c.stats.StaleFreezes)
	}
	if got := c.nodes["c"].capW; got != 100 {
		t.Fatalf("expired lease holds %.1f W, want the 100 W floor", got)
	}
	if !c.nodes["c"].expired {
		t.Fatal("node state not marked expired")
	}
	var row *NodeStatus
	for i := range c.Status().Nodes {
		if c.Status().Nodes[i].NodeID == "c" {
			row = &c.Status().Nodes[i]
		}
	}
	if row == nil || !row.LeaseExpired || row.LeaseToken != lastTok {
		t.Fatalf("status row does not render the expired lease: %+v", row)
	}

	// Rejoin: c reports again. The expiry clears, the token advances,
	// and the budget stays conserved.
	g, err := c.Submit(report("c", 8, 0.10, 99, 100))
	if err != nil {
		t.Fatal(err)
	}
	if g.Token <= lastTok {
		t.Fatalf("rejoin token %d did not advance past %d", g.Token, lastTok)
	}
	if c.nodes["c"].expired {
		t.Fatal("rejoin left the lease marked expired")
	}
	budgetConserved(t, c)
}

// TestSubmitDedupIgnoresReplays pins the server-side (node, epoch)
// dedupe: a re-delivered report mutates nothing — not the stats, not
// the fencing token, not the arbitration book — and returns the same
// grant the original got.
func TestSubmitDedupIgnoresReplays(t *testing.T) {
	c := newTest(t, leasedOpt())
	first, applied, err := c.SubmitDedup(report("a", 0, 0.15, 80, 100))
	if err != nil || !applied {
		t.Fatalf("first delivery: applied=%v err=%v", applied, err)
	}
	reports, tok := c.stats.Reports, c.nodes["a"].leaseTok
	for i := 0; i < 3; i++ {
		again, applied, err := c.SubmitDedup(report("a", 0, 0.15, 80, 100))
		if err != nil {
			t.Fatal(err)
		}
		if applied {
			t.Fatalf("replay %d counted as applied", i)
		}
		if again != first {
			t.Fatalf("replay %d got a different grant: %+v vs %+v", i, again, first)
		}
	}
	if c.stats.Reports != reports || c.nodes["a"].leaseTok != tok {
		t.Fatal("replays mutated durable stats or the fencing token")
	}
	// A genuinely newer epoch still applies.
	if _, applied, err := c.SubmitDedup(report("a", 1, 0.15, 80, 100)); err != nil || !applied {
		t.Fatalf("fresh epoch after replays: applied=%v err=%v", applied, err)
	}
	if c.nodes["a"].leaseTok != tok+1 {
		t.Fatalf("token %d after fresh epoch, want %d", c.nodes["a"].leaseTok, tok+1)
	}
}

// TestRestoreRejectsResurrectedLease is the recovery-ladder fence for
// satellite 1: a snapshot claiming a lease is expired while its cap
// still holds watts above the floor would double-allocate those watts
// on restart (the reclaim already returned them to the pool once).
// Restore must fail closed.
func TestRestoreRejectsResurrectedLease(t *testing.T) {
	c := newTest(t, leasedOpt())
	for e := 0; e < 2; e++ {
		for _, id := range []string{"a", "b", "c"} {
			if _, err := c.Submit(report(id, e, 0.15, 80, 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Snapshot()
	if err := newTest(t, leasedOpt()).Restore(st); err != nil {
		t.Fatalf("clean snapshot must restore: %v", err)
	}

	// Tamper: mark node a's lease expired while its cap stays above the
	// floor (keeping the document budget-conserved so only the lease
	// check can object).
	bad := *st
	bad.Nodes = append([]SavedNode(nil), st.Nodes...)
	bad.Nodes[0].LeaseExpired = true
	bad.Nodes[0].CapW += 10
	bad.Nodes[1].CapW -= 10
	err := newTest(t, leasedOpt()).Restore(&bad)
	if err == nil || !strings.Contains(err.Error(), "resurrects expired lease") {
		t.Fatalf("over-subscribed expired lease restored: %v", err)
	}

	// The same document is fine on a coordinator without leases (the
	// fields are inert v2 extras there) and when the cap is at floor.
	opt := leasedOpt()
	opt.LeaseEpochs = 0
	if err := newTest(t, opt).Restore(&bad); err != nil {
		t.Fatalf("lease fields must be inert without LeaseEpochs: %v", err)
	}
	ok := *st
	ok.Nodes = append([]SavedNode(nil), st.Nodes...)
	ok.Nodes[0].LeaseExpired = true // cap already at the 100 W floor
	if err := newTest(t, leasedOpt()).Restore(&ok); err != nil {
		t.Fatalf("at-floor expired lease must restore: %v", err)
	}
}

// FuzzLeaseStateDecode hammers the v2 (lease-bearing) snapshot decoder:
// any document that decodes and restores into a lease-enabled
// coordinator must leave it with a valid status, no expired lease
// above the floor, and lease state that survives a snapshot round
// trip — or be rejected whole.
func FuzzLeaseStateDecode(f *testing.F) {
	c, err := New(leasedOpt())
	if err != nil {
		f.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		for _, id := range []string{"a", "b", "c"} {
			_, _ = c.Submit(report(id, e, 0.15, 80, 100))
		}
	}
	if seed, err := jsonio.Marshal(c.Snapshot()); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"schema":"sturgeon/coordstate/v2","budget_w":300,"pool_w":0,"nodes":[` +
		`{"node_id":"a","cap_w":300,"lease_token":7,"lease_expired":true,` +
		`"report":{"schema":"sturgeon/coordinator/v1","node_id":"a","healthy":true,"p95_s":0.001,"power_w":1,"cap_w":1}}]}`))
	f.Add([]byte(`{"schema":"sturgeon/coordstate/v1","budget_w":300,"pool_w":300,"nodes":[]}`))
	f.Add([]byte(`{"schema":"sturgeon/coordstate/v2","budget_w":300,"pool_w":300,"nodes":[],"stats":{"lease_expirations":-1}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var st State
		if err := jsonio.Unmarshal(data, &st); err != nil {
			return
		}
		rc, err := New(Options{BudgetW: st.BudgetW, FleetSize: 3, LeaseEpochs: 2})
		if err != nil {
			return
		}
		if err := rc.Restore(&st); err != nil {
			return // rejected whole: fine
		}
		if err := rc.Status().Validate(); err != nil {
			t.Fatalf("restored coordinator has invalid status: %v", err)
		}
		for id, ns := range rc.nodes {
			if ns.expired && ns.capW > rc.opt.LeaseFloorW+1e-6 {
				t.Fatalf("restore admitted expired lease above floor for %s: %.3f W", id, ns.capW)
			}
			if ns.leaseTok < 0 {
				t.Fatalf("restore admitted negative token for %s", id)
			}
		}
		// Lease state must survive the snapshot round trip exactly.
		rt, err := New(Options{BudgetW: st.BudgetW, FleetSize: 3, LeaseEpochs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Restore(rc.Snapshot()); err != nil {
			t.Fatalf("round-trip snapshot rejected: %v", err)
		}
		for id, ns := range rc.nodes {
			if rt.nodes[id].leaseTok != ns.leaseTok || rt.nodes[id].expired != ns.expired {
				t.Fatalf("lease state for %s diverged across round trip", id)
			}
		}
	})
}

// netPlanFor builds the scripted single-fate plans the fate-order
// battery drives: partitions via ManualNet, and the per-message fates
// via NewNet with the relevant rate pinned to 1 (every message suffers
// the fate, so the schedule is deterministic without seeding games).
func netPlanFor(t *testing.T, epochs, nodes int, kind string, seed int64) *faults.NetPlan {
	t.Helper()
	switch kind {
	case "partition-out":
		return faults.ManualNet(epochs, nodes,
			faults.NetWindow{Node: 0, Dir: faults.DirReport, Start: 1, End: epochs + 1})
	case "partition-in":
		return faults.ManualNet(epochs, nodes,
			faults.NetWindow{Node: 0, Dir: faults.DirGrant, Start: 1, End: epochs + 1})
	case "drop-delay-all":
		return faults.NewNet(faults.NetSpec{DropRate: 1, DelayRate: 1}, seed, epochs, nodes)
	case "delay-all":
		return faults.NewNet(faults.NetSpec{DelayRate: 1, ReorderRate: 1}, seed, epochs, nodes)
	case "dup-all":
		return faults.NewNet(faults.NetSpec{DupRate: 1}, seed, epochs, nodes)
	}
	t.Fatalf("unknown plan kind %q", kind)
	return nil
}

// TestNetChaosFateOrder scripts each message fate through a NetChaos-
// wrapped Local transport and checks both the caller-visible outcome
// and the coordinator-side ground truth. The fates are considered in
// the order flush-delayed → partitioned-out → delayed → deliver →
// duplicated → partitioned-in; a dropped report is a partitioned-out
// one.
func TestNetChaosFateOrder(t *testing.T) {
	t.Run("partition-out", func(t *testing.T) {
		c := newTest(t, leasedOpt())
		nc := &NetChaos{Inner: &Local{C: c},
			Plan: netPlanFor(t, 4, 2, "partition-out", 0)}
		if _, err := nc.Report(context.Background(), report("node-0", 1, 0.2, 80, 100)); err == nil {
			t.Fatal("severed report delivered")
		}
		if c.stats.Reports != 0 {
			t.Fatal("partitioned-out report reached the coordinator")
		}
		if nc.Stats().PartitionedOut != 1 {
			t.Fatalf("stats %+v", nc.Stats())
		}
	})
	t.Run("drop-is-partition-out-before-delay", func(t *testing.T) {
		c := newTest(t, leasedOpt())
		nc := &NetChaos{Inner: &Local{C: c},
			Plan: netPlanFor(t, 4, 2, "drop-delay-all", 0)}
		for e := 1; e <= 2; e++ {
			_, err := nc.Report(context.Background(), report("node-0", e, 0.2, 80, 100))
			if !errors.Is(err, ErrNetChaos) {
				t.Fatalf("epoch %d: dropped report returned %v, want ErrNetChaos", e, err)
			}
		}
		// Nothing was held for a later flush: the drop came first.
		if c.stats.Reports != 0 {
			t.Fatal("dropped report reached the coordinator")
		}
		if st := nc.Stats(); st != (NetStats{PartitionedOut: 2}) {
			t.Fatalf("stats %+v, want two partitioned-out reports", st)
		}
	})
	t.Run("partition-in", func(t *testing.T) {
		c := newTest(t, leasedOpt())
		nc := &NetChaos{Inner: &Local{C: c},
			Plan: netPlanFor(t, 4, 2, "partition-in", 0)}
		_, err := nc.Report(context.Background(), report("node-0", 1, 0.2, 80, 100))
		if err == nil {
			t.Fatal("lost grant still returned")
		}
		// The asymmetric fate: the caller saw a failure, but the
		// coordinator DID apply the report (the server-side lease renewed).
		if c.stats.Reports != 1 || c.nodes["node-0"].leaseTok != 1 {
			t.Fatalf("partitioned-in report not applied server-side: reports %d", c.stats.Reports)
		}
		if nc.Stats().PartitionedIn != 1 {
			t.Fatalf("stats %+v", nc.Stats())
		}
	})
	t.Run("delay-flush-reorder", func(t *testing.T) {
		c := newTest(t, leasedOpt())
		nc := &NetChaos{Inner: &Local{C: c},
			Plan: netPlanFor(t, 4, 2, "delay-all", 0)}
		// Both nodes' epoch-1 reports are held. Nothing reaches the
		// coordinator this epoch.
		for _, id := range []string{"node-0", "node-1"} {
			if _, err := nc.Report(context.Background(), report(id, 1, 0.2, 80, 100)); err == nil {
				t.Fatal("delayed report acked in its own epoch")
			}
		}
		if c.stats.Reports != 0 {
			t.Fatal("delayed reports arrived early")
		}
		// The first epoch-2 report flushes the held batch (reversed: the
		// plan schedules a reorder every epoch), then is itself delayed.
		if _, err := nc.Report(context.Background(), report("node-0", 2, 0.2, 80, 100)); err == nil {
			t.Fatal("epoch-2 report should also be delayed")
		}
		if c.stats.Reports != 2 {
			t.Fatalf("flush delivered %d late reports, want 2", c.stats.Reports)
		}
		st := nc.Stats()
		if st.Delayed != 3 || st.DeliveredLate != 2 || st.Reordered != 1 {
			t.Fatalf("stats %+v", st)
		}
	})
	t.Run("duplicate-is-pure", func(t *testing.T) {
		c := newTest(t, leasedOpt())
		nc := &NetChaos{Inner: &Local{C: c},
			Plan: netPlanFor(t, 4, 2, "dup-all", 0)}
		g, err := nc.Report(context.Background(), report("node-0", 1, 0.2, 80, 100))
		if err != nil {
			t.Fatal(err)
		}
		// The duplicate was re-delivered behind the caller's back; the
		// server-side dedupe must have made it a no-op (replay purity:
		// one applied report, one token bump).
		if nc.Stats().Duplicated != 1 {
			t.Fatalf("stats %+v", nc.Stats())
		}
		if c.stats.Reports != 1 || c.nodes["node-0"].leaseTok != g.Token {
			t.Fatalf("duplicate mutated the coordinator: reports %d token %d vs grant %d",
				c.stats.Reports, c.nodes["node-0"].leaseTok, g.Token)
		}
	})
	t.Run("unmapped-node-passes-through", func(t *testing.T) {
		c := newTest(t, leasedOpt())
		nc := &NetChaos{Inner: &Local{C: c},
			Plan: netPlanFor(t, 4, 2, "partition-out", 0)}
		if _, err := nc.Report(context.Background(), report("weird", 1, 0.2, 80, 100)); err != nil {
			t.Fatalf("unmapped node harmed: %v", err)
		}
		if nc.Stats() != (NetStats{}) {
			t.Fatalf("unmapped node tallied fates: %+v", nc.Stats())
		}
	})
}

// TestNetChaosSeveredReportAllocFree pins the lost-report path at zero
// heap allocations: under the fleet's chaos schedule about one report
// in eight is severed, on the serial merge path.
func TestNetChaosSeveredReportAllocFree(t *testing.T) {
	nc := &NetChaos{Inner: &Local{C: newTest(t, leasedOpt())},
		Plan: netPlanFor(t, 4, 2, "partition-out", 0)}
	r := report("node-0", 1, 0.2, 80, 100)
	sever := func() {
		if _, err := nc.Report(context.Background(), r); err == nil {
			t.Fatal("partitioned-out report delivered")
		}
	}
	if allocs := testing.AllocsPerRun(100, sever); allocs != 0 {
		t.Errorf("severed report allocates %v times per call, want 0", allocs)
	}
}
