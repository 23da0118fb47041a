package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Shared quick-mode environment: sweeps are the expensive part.
var (
	envOnce sync.Once
	testEnv *Env
)

func quickEnv() *Env {
	envOnce.Do(func() {
		testEnv = NewEnv(Config{Quick: true, PairLimit: 2})
	})
	return testEnv
}

func TestFig2ShapeAllPairsOverload(t *testing.T) {
	rows, tbl := Fig2PowerOverload(quickEnv())
	if len(rows) != 18 {
		t.Fatalf("got %d pairs, want 18", len(rows))
	}
	for _, r := range rows {
		if !r.Overloads {
			t.Errorf("%s+%s does not overload (ratio %.3f)", r.LS, r.BE, r.Ratio)
		}
		if r.Ratio > 1.2 {
			t.Errorf("%s+%s overload %.3f outside the paper's corridor", r.LS, r.BE, r.Ratio)
		}
	}
	if !strings.Contains(tbl.String(), "memcached+bs") {
		t.Error("table missing pair rows")
	}
}

func TestFig3PaperPairsShape(t *testing.T) {
	rows, _ := Fig3PaperPairs(quickEnv())
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want 12", len(rows))
	}
	coresAt20, freqAt35, feAt35Cores := 0, 0, false
	for _, r := range rows {
		if r.LoadFrac == 0.20 && r.Winner == "cores" {
			coresAt20++
		}
		if r.LoadFrac == 0.35 {
			if r.Winner == "freq" {
				freqAt35++
			}
			if r.BE == "fe" && r.Winner == "cores" {
				feAt35Cores = true
			}
		}
	}
	// Paper: 6/6 cores at 20 %; ≥4/6 freq at 35 %; ferret prefers cores.
	if coresAt20 < 5 {
		t.Errorf("cores won only %d/6 at 20%% load", coresAt20)
	}
	if freqAt35 < 4 {
		t.Errorf("freq won only %d/6 at 35%% load", freqAt35)
	}
	if !feAt35Cores {
		t.Error("ferret did not prefer cores at 35% load")
	}
}

func TestFig3FrontierProducesComparisons(t *testing.T) {
	rows, _ := Fig3FeasibleConfigs(quickEnv())
	if len(rows) < 10 {
		t.Fatalf("only %d frontier comparisons", len(rows))
	}
	for _, r := range rows {
		if r.ThptCores <= 0 || r.ThptFreq <= 0 {
			t.Errorf("%s at %.0f%%: degenerate throughputs %v/%v", r.BE, r.LoadFrac*100, r.ThptCores, r.ThptFreq)
		}
		if r.ThptCores > 1.01 || r.ThptFreq > 1.01 {
			t.Errorf("%s: normalized throughput above solo", r.BE)
		}
	}
}

func TestFig67Shapes(t *testing.T) {
	e := quickEnv()
	perf, _ := Fig6PerformanceModels(e)
	if len(perf) != 9 {
		t.Fatalf("Fig6 rows = %d, want 9", len(perf))
	}
	for _, r := range perf {
		if len(r.Scores) != 5 {
			t.Fatalf("%s has %d scores", r.Model, len(r.Scores))
		}
		// Some technique must model every application well.
		best := 0.0
		for _, s := range r.Scores {
			if s.Value > best {
				best = s.Value
			}
		}
		if best < 0.9 {
			t.Errorf("%s best score %.3f < 0.9", r.Model, best)
		}
	}
	pow, _ := Fig7PowerModels(e)
	if len(pow) != 9 {
		t.Fatalf("Fig7 rows = %d, want 9", len(pow))
	}
	for _, r := range pow {
		best := 0.0
		for _, s := range r.Scores {
			if s.Value > best {
				best = s.Value
			}
		}
		if best < 0.9 {
			t.Errorf("%s best power R² %.3f < 0.9", r.Model, best)
		}
	}
}

func TestFig9And10QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation runs are slow")
	}
	rows, qos, thpt, sum := Fig9And10(quickEnv(), false)
	// PairLimit 2 × 3 controllers.
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	agg := map[string][]EvalRow{}
	for _, r := range rows {
		agg[r.Controller] = append(agg[r.Controller], r)
		if r.QoSRate < 0.85 || r.QoSRate > 1 {
			t.Errorf("%s %s+%s: implausible QoS %.3f", r.Controller, r.LS, r.BE, r.QoSRate)
		}
		if r.NormBE <= 0 || r.NormBE >= 1 {
			t.Errorf("%s %s+%s: implausible throughput %.3f", r.Controller, r.LS, r.BE, r.NormBE)
		}
	}
	// Sturgeon must never trip the breaker; its throughput must beat
	// PARTIES on these memcached pairs.
	var stThpt, paThpt float64
	for i := range agg["sturgeon"] {
		if agg["sturgeon"][i].Trips != 0 {
			t.Errorf("sturgeon tripped the breaker on %s+%s", agg["sturgeon"][i].LS, agg["sturgeon"][i].BE)
		}
		stThpt += agg["sturgeon"][i].NormBE
		paThpt += agg["parties"][i].NormBE
	}
	if stThpt <= paThpt {
		t.Errorf("sturgeon throughput %.3f not above parties %.3f", stThpt, paThpt)
	}
	for _, tb := range []string{qos.String(), thpt.String(), sum.String()} {
		if !strings.Contains(tb, "sturgeon") {
			t.Error("table missing controller column")
		}
	}
}

func TestFig11TraceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation runs are slow")
	}
	res := Fig11Trace(quickEnv())
	if len(res.Sturgeon.Series) < 5 || len(res.Parties.Series) < 5 {
		t.Fatal("missing trace series")
	}
	base := res.Sturgeon.Series[0]
	if len(base.T) < 60 {
		t.Errorf("trace too short: %d points", len(base.T))
	}
	var sb strings.Builder
	if err := res.Sturgeon.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ls_cores") {
		t.Error("TSV missing columns")
	}
}

func TestTable1(t *testing.T) {
	s := Table1().String()
	for _, sys := range []string{"Bubble", "PARTIES", "Dirigent", "PowerChief", "Rubik", "Sturgeon"} {
		if !strings.Contains(s, sys) {
			t.Errorf("Table I missing %s", sys)
		}
	}
}

func TestOverheadOrdersOfMagnitude(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement is slow")
	}
	res, _ := Overhead(quickEnv())
	if res.GuidedSearchMS <= 0 || res.ExhaustiveSearchMS <= 0 {
		t.Fatal("degenerate timings")
	}
	// The paper's point: the guided search is orders of magnitude
	// cheaper than the exhaustive scan.
	if res.SpeedupX < 10 {
		t.Errorf("guided search only %.1fx faster than exhaustive", res.SpeedupX)
	}
	if res.GuidedQueries <= 0 || res.ExhaustiveQueries < 10000 {
		t.Errorf("query accounting off: guided %d, exhaustive %d", res.GuidedQueries, res.ExhaustiveQueries)
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	e := quickEnv()
	for name, tbl := range map[string]string{
		"queue":    AblationQueueEngines(e).String(),
		"slack":    AblationSlackBounds(e).String(),
		"headroom": AblationSearchHeadroom(e).String(),
	} {
		if len(tbl) == 0 {
			t.Errorf("ablation %s produced no output", name)
		}
	}
}

func TestExtensionExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("extension experiments are slow")
	}
	e := quickEnv()
	if tbl := AblationEndToEndEngines(e); len(tbl.Rows) != 2 {
		t.Errorf("engine ablation rows = %d", len(tbl.Rows))
	}
	if tbl := RAPLBaseline(e); len(tbl.Rows) != 4 {
		t.Errorf("RAPL baseline rows = %d", len(tbl.Rows))
	}
	if tbl := EnergyEfficiency(e, false); len(tbl.Rows) != 6 {
		t.Errorf("energy rows = %d", len(tbl.Rows))
	}
	if tbl := MultiAppShowdown(e); len(tbl.Rows) != 2 {
		t.Errorf("multi showdown rows = %d", len(tbl.Rows))
	}
	if tbl := AblationPeakVsMeanPower(e); len(tbl.Rows) != 2 {
		t.Errorf("peak-vs-mean rows = %d", len(tbl.Rows))
	}
	if tbl := AblationHarvestPolicy(e); len(tbl.Rows) != 2 {
		t.Errorf("harvest policy rows = %d", len(tbl.Rows))
	}
}

func TestFleet10kScaleQuickShape(t *testing.T) {
	rows, tbl := Fleet10kScale(quickEnv())
	if len(rows) != 2 {
		t.Fatalf("quick mode ran %d sizes, want 2", len(rows))
	}
	for _, r := range rows {
		if r.QoSRate < 0.99 {
			t.Errorf("%d nodes: qos %.4f below the quiet-fleet floor", r.Nodes, r.QoSRate)
		}
		if r.ActiveSeconds <= 0 || r.ActiveSeconds >= r.DurationS/100 {
			t.Errorf("%d nodes: %d active seconds of %d — skipping not engaging", r.Nodes, r.ActiveSeconds, r.DurationS)
		}
		if r.MeanPowerW <= 0 || r.BEThroughput <= 0 {
			t.Errorf("%d nodes: non-physical power %.1f / throughput %.1f", r.Nodes, r.MeanPowerW, r.BEThroughput)
		}
	}
	if !strings.Contains(tbl.String(), "86400") {
		t.Error("table missing the day horizon")
	}
}

// TestPlacementShowdownQuickShape runs the placement extension in quick
// mode (random vs physics-steered placement; the trained row is skipped)
// and checks the acceptance direction: placement must beat random
// pairing on fleet BE throughput without giving up QoS.
func TestPlacementShowdownQuickShape(t *testing.T) {
	tbl := PlacementShowdown(quickEnv())
	if len(tbl.Rows) != 2 {
		t.Fatalf("quick mode ran %d pairings, want 2 (random, placed-physics)", len(tbl.Rows))
	}
	cell := func(row int, col string) float64 {
		for i, h := range tbl.Headers {
			if h == col {
				v, err := strconv.ParseFloat(tbl.Rows[row][i], 64)
				if err != nil {
					t.Fatalf("row %d %s: %v", row, col, err)
				}
				return v
			}
		}
		t.Fatalf("no column %q", col)
		return 0
	}
	if tbl.Rows[0][0] != "random" || tbl.Rows[1][0] != "placed-physics" {
		t.Fatalf("unexpected pairing rows: %v vs %v", tbl.Rows[0][0], tbl.Rows[1][0])
	}
	if be0, be1 := cell(0, "be_ups"), cell(1, "be_ups"); be1 <= be0 {
		t.Errorf("placement does not beat random pairing: %.2f vs %.2f UPS", be1, be0)
	}
	// QoS must be preserved to within contention noise: the quick env's
	// seed is arbitrary (the strict gate, TestPlacementBeatsRandomPairing,
	// runs on the pinned scenario),
	// and BE co-location shifts LS tail latency by fractions of a percent
	// either way across seeds.
	if q0, q1 := cell(0, "qos_rate"), cell(1, "qos_rate"); q1 < q0-0.005 {
		t.Errorf("placement sacrifices QoS: %.6f vs %.6f", q1, q0)
	}
	if moves := cell(1, "moves"); moves <= 0 {
		t.Error("the placed row migrated nothing — the planner never fired")
	}
}
