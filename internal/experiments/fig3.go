package experiments

import (
	"sturgeon/internal/core"
	"sturgeon/internal/hw"
	"sturgeon/internal/sim"
	"sturgeon/internal/trace"
	"sturgeon/internal/workload"
)

// Fig3Row compares two feasible configurations of one pair at one load.
type Fig3Row struct {
	LS, BE   string
	LoadFrac float64
	// CoreRich is the feasible candidate granting the BE side the most
	// cores; FreqRich the one granting the highest frequency.
	CoreRich, FreqRich hw.Config
	// ThptCores and ThptFreq are true normalized BE throughputs.
	ThptCores, ThptFreq float64
	// Winner is "cores" or "freq".
	Winner string
}

// Fig3PaperPairs evaluates the paper's literal Fig. 3 configuration
// pairs on the physics: at 20 % load <4C,1.6F,6L; 16C,1.8F,14L> versus
// <8C,1.2F,7L; 12C,2.2F,13L>, and at 35 % load <12C,1.3F,12L; 8C,2.2F,8L>
// versus <8C,2.0F,10L; 12C,1.4F,10L>. The paper's shape: more cores win
// for every application at 20 %; higher frequency wins at 35 % for every
// application except ferret.
func Fig3PaperPairs(env *Env) ([]Fig3Row, *trace.Table) {
	tbl := trace.NewTable("Fig. 3 (paper's configuration pairs) — normalized BE throughput",
		"pair", "load", "core-rich config", "thpt", "freq-rich config", "thpt", "winner")
	ls := workload.Memcached()
	type pairCfg struct {
		load               float64
		coreRich, freqRich hw.Config
	}
	cases := []pairCfg{
		{0.20,
			hw.Config{LS: hw.Alloc{Cores: 4, Freq: 1.6, LLCWays: 6}, BE: hw.Alloc{Cores: 16, Freq: 1.8, LLCWays: 14}},
			hw.Config{LS: hw.Alloc{Cores: 8, Freq: 1.2, LLCWays: 7}, BE: hw.Alloc{Cores: 12, Freq: 2.2, LLCWays: 13}}},
		{0.35,
			hw.Config{LS: hw.Alloc{Cores: 8, Freq: 2.0, LLCWays: 10}, BE: hw.Alloc{Cores: 12, Freq: 1.4, LLCWays: 10}},
			hw.Config{LS: hw.Alloc{Cores: 12, Freq: 1.3, LLCWays: 12}, BE: hw.Alloc{Cores: 8, Freq: 2.2, LLCWays: 8}}},
	}
	var rows []Fig3Row
	for _, be := range workload.BEApps() {
		o := sim.NewOracle(ls, be, 1, nil)
		for _, pc := range cases {
			rows = append(rows, fig3Row(tbl, env, o, ls, be, pc.load, pc.coreRich, pc.freqRich))
		}
	}
	return rows, tbl
}

// fig3Row measures the two configurations on the ground-truth physics,
// normalizes their BE throughput to the solo run and adds the row to tbl.
func fig3Row(tbl *trace.Table, env *Env, o *sim.Oracle, ls, be workload.Profile, load float64, coreRich, freqRich hw.Config) Fig3Row {
	solo := o.Throughput(hw.SoloBE(env.Spec).BE)
	measure := func(cfg hw.Config) float64 {
		st, err := o.Measure(cfg, load*ls.PeakQPS)
		if err != nil {
			return 0
		}
		return st.BEThroughputUPS / solo
	}
	r := Fig3Row{
		LS: ls.Name, BE: be.Name, LoadFrac: load,
		CoreRich: coreRich, FreqRich: freqRich,
		ThptCores: measure(coreRich), ThptFreq: measure(freqRich),
	}
	r.Winner = "freq"
	if r.ThptCores >= r.ThptFreq {
		r.Winner = "cores"
	}
	tbl.Addf(ls.Name+"+"+be.Name, r.LoadFrac,
		r.CoreRich.String(), r.ThptCores,
		r.FreqRich.String(), r.ThptFreq, r.Winner)
	return r
}

// Fig3FeasibleConfigs reproduces Fig. 3: for memcached co-located with
// each BE application at 20 % and 35 % load, take the feasible-candidate
// frontier from Sturgeon's own search, pick the core-richest and
// frequency-richest BE options, and measure their true throughput. The
// paper's shape: at 20 % more cores win for every application, at 35 %
// higher frequency wins for all but ferret.
func Fig3FeasibleConfigs(env *Env) ([]Fig3Row, *trace.Table) {
	tbl := trace.NewTable("Fig. 3 — BE throughput under two feasible configurations (normalized to solo run)",
		"pair", "load", "core-rich config", "thpt", "freq-rich config", "thpt", "winner")
	ls := workload.Memcached()
	budget := env.Budget(ls)

	var rows []Fig3Row
	for _, be := range workload.BEApps() {
		// Fig. 3 is the paper's *motivation* measurement, taken on the
		// real machine before any predictor exists — so the candidate
		// frontier here is computed against ground-truth physics.
		o := sim.NewOracle(ls, be, 1, nil)
		s := &core.Searcher{
			Spec: env.Spec, Pred: o, Budget: budget,
			HeadroomWays: -1, HeadroomFreq: -1, PowerGuardFrac: 0.001,
		}
		for _, load := range []float64{0.20, 0.35} {
			cands := s.Candidates(load * ls.PeakQPS)
			if len(cands) < 2 {
				continue
			}
			// The paper's two options: the candidate granting the BE
			// application the most cores (the just-enough-LS corner) and
			// the one granting the highest BE frequency (the end of the
			// sweep).
			coreRich := cands[0].Config
			freqRich := cands[len(cands)-1].Config
			for _, c := range cands {
				if c.Config.BE.Cores > coreRich.BE.Cores ||
					(c.Config.BE.Cores == coreRich.BE.Cores && c.Config.BE.LLCWays > coreRich.BE.LLCWays) {
					coreRich = c.Config
				}
				if c.Config.BE.Freq > freqRich.BE.Freq ||
					(c.Config.BE.Freq == freqRich.BE.Freq && c.Config.BE.Cores > freqRich.BE.Cores) {
					freqRich = c.Config
				}
			}
			rows = append(rows, fig3Row(tbl, env, o, ls, be, load, coreRich, freqRich))
		}
	}
	return rows, tbl
}
