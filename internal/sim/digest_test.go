package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sturgeon/internal/control"
	"sturgeon/internal/hw"
	"sturgeon/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// intervalDigest is a SHA-256 over every numeric field of every interval:
// floats by their IEEE-754 bits, so a change in the last ulp of any
// physics output — or one rng draw taken in a different order — moves it.
func intervalDigest(iv []IntervalStats) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(xs ...float64) {
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	alloc := func(a hw.Alloc) {
		put(uint64(a.Cores))
		f(float64(a.Freq))
		put(uint64(a.LLCWays))
	}
	for _, s := range iv {
		f(s.Time, s.QPS, s.TrueP95, s.P95, s.QoSFrac, s.BEThroughputUPS,
			float64(s.TruePower), float64(s.Power), s.LSUtil, s.BEUtil, s.LSRho, s.Contention)
		interf := uint64(0)
		if s.Interference {
			interf = 1
		}
		put(interf)
		alloc(s.Config.LS)
		alloc(s.Config.BE)
		put(uint64(s.Faults))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestRuns are the pinned sim.Runner scenarios: the default noisy node
// (interference, meter noise and p95 noise) under Static and Governor on
// a triangle trace for three pairs, plus one discrete-event latency run
// and one 99th-percentile run. The discrete-event run is short: its
// engine samples every query (~15 ms per interval).
func digestRuns() string {
	static := hw.Config{
		LS: hw.Alloc{Cores: 8, Freq: 2.0, LLCWays: 10},
		BE: hw.Alloc{Cores: 12, Freq: 1.4, LLCWays: 10},
	}
	type scenario struct {
		name     string
		ls, be   workload.Profile
		governor bool
		des      bool
		pct      float64
		dur      int
	}
	var runs []scenario
	for _, p := range [][2]workload.Profile{
		{workload.Memcached(), workload.Raytrace()},
		{workload.Xapian(), workload.Swaptions()},
		{workload.ImgDNN(), workload.Blackscholes()},
	} {
		runs = append(runs,
			scenario{name: "static", ls: p[0], be: p[1], dur: 120},
			scenario{name: "governor", ls: p[0], be: p[1], governor: true, dur: 120})
	}
	runs = append(runs,
		scenario{name: "governor-des", ls: workload.Memcached(), be: workload.Raytrace(), governor: true, des: true, dur: 20},
		scenario{name: "governor-p99", ls: workload.Xapian(), be: workload.Raytrace(), governor: true, pct: 0.99, dur: 120})

	var sb strings.Builder
	for i, sc := range runs {
		node := NewNode(sc.ls, sc.be, int64(100+i))
		node.UseDES = sc.des
		node.QoSPercentile = sc.pct
		budget := LSPeakPower(node.Spec, node.PowerParams, node.Bus, sc.ls)
		var ctrl control.Controller = control.Static{Cfg: static}
		start := static
		if sc.governor {
			ctrl = control.NewGovernor(node.Spec, budget)
			start = hw.SoloLS(node.Spec)
		}
		if err := node.Apply(start); err != nil {
			panic(err)
		}
		r := Runner{Node: node, Ctrl: ctrl, Budget: budget,
			Trace: workload.Triangle(0.1, 0.9, float64(sc.dur)), DurationS: sc.dur}
		fmt.Fprintf(&sb, "%s+%s %s %s\n", sc.ls.Name, sc.be.Name, sc.name, intervalDigest(r.Run().Intervals))
	}
	return sb.String()
}

// TestIntervalDigestGolden pins the node physics bit for bit: every
// numeric IntervalStats field of the digestRuns scenarios. Like the
// cluster goldens the digests hold on amd64 (math library results are
// platform-specific elsewhere); regenerate an intentional change with
// `go test ./internal/sim -run IntervalDigest -update`.
func TestIntervalDigestGolden(t *testing.T) {
	got := digestRuns()
	path := filepath.Join("testdata", "interval_digest.golden")
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
		t.Errorf("interval digests drifted from golden fixture.\n--- got ---\n%s--- want ---\n%s"+
			"(if the change is intentional, regenerate with `go test ./internal/sim -run IntervalDigest -update`)",
			got, want)
	}
}
