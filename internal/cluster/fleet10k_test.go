package cluster

import "testing"

func TestDefaultFleet10kShape(t *testing.T) {
	o := DefaultFleet10k()
	if o.Nodes != 10_000 || o.DurationS != 86_400 || o.StepDurS != 3_600 {
		t.Fatalf("pinned scenario drifted: %+v", o)
	}
	if len(o.Levels) != 24 {
		t.Fatalf("want 24 hourly treads, got %d", len(o.Levels))
	}
	for h, l := range o.Levels {
		if l < 0.2 || l > 0.6 {
			t.Fatalf("tread %d level %v outside the diurnal band", h, l)
		}
	}
	c, err := BuildFleet10k(o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine != EngineEvent {
		t.Fatal("fleet10k must default to the event engine")
	}
	// Step 0 plus one edge per tread (the last edge, step 86399, is the
	// wrap back to tread 0 inside the horizon).
	if len(c.TraceBreaks) != 25 {
		t.Fatalf("declared %d trace breaks, want 25", len(c.TraceBreaks))
	}
	if _, err := BuildFleet10k(Fleet10kOptions{}); err == nil {
		t.Fatal("zero options must be rejected")
	}
}

// TestFleet10kSmallCrossEngine ground-truths a scaled-down fleet10k
// against per-second stepping: a homogeneous quiet fleet is exactly the
// configuration where all three skip tiers (replication, replay,
// cross-node memoization) engage at once, so byte-equality here is the
// direct check that the 10k scenario's fast path computes the same day
// the slow engine would.
func TestFleet10kSmallCrossEngine(t *testing.T) {
	o := DefaultFleet10k()
	o.Nodes = 32
	o.DurationS = 240
	o.StepDurS = 60
	o.Levels = []float64{0.25, 0.5, 0.4, 0.3}
	run := func(eng Engine, par int) string {
		c, err := BuildFleet10k(o)
		if err != nil {
			t.Fatal(err)
		}
		c.Engine = eng
		c.Parallelism = par
		return c.Run(o.Trace(), o.DurationS).Summary()
	}
	ref := run(EngineStep, 1)
	for _, par := range []int{1, 8} {
		if got := run(EngineEvent, par); got != ref {
			t.Fatalf("event engine diverges at parallelism %d.\n--- step ---\n%s--- event ---\n%s", par, ref, got)
		}
	}
}

// TestFleet10kDayDeterministicAndSkipping runs a 2 000-node full day on
// the event engine at two parallelism levels: byte-identical summaries,
// and exactly 35 of the 86 400 seconds evaluated, the count `repro -exp
// fleet10k` reports at every fleet size. This is the property that makes
// the 10k-node day finish in seconds, pinned as a count rather than a
// wall time.
func TestFleet10kDayDeterministicAndSkipping(t *testing.T) {
	o := DefaultFleet10k()
	o.Nodes = 2_000
	run := func(par int) (string, int) {
		c, err := BuildFleet10k(o)
		if err != nil {
			t.Fatal(err)
		}
		c.Parallelism = par
		res := c.Run(o.Trace(), o.DurationS)
		return res.Summary(), c.EventActiveSeconds()
	}
	sum4, act4 := run(4)
	sum8, act8 := run(8)
	if sum4 != sum8 {
		t.Fatal("fleet10k day is not byte-identical across parallelism levels")
	}
	if act4 != act8 {
		t.Fatalf("active seconds differ across parallelism: %d vs %d", act4, act8)
	}
	if act4 != 35 {
		t.Fatalf("event engine evaluated %d of %d seconds, want 35", act4, o.DurationS)
	}
}
