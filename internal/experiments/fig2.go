package experiments

import (
	"fmt"

	"sturgeon/internal/hw"
	"sturgeon/internal/sim"
	"sturgeon/internal/trace"
)

// Fig2Row is one pair's power-overload measurement.
type Fig2Row struct {
	LS, BE    string
	BudgetW   float64
	PowerW    float64
	Ratio     float64 // power / budget
	Overloads bool
}

// Fig2PowerOverload reproduces Fig. 2: QoS-aware but power-unaware
// co-location at 20 % load — just-enough resources to the LS service,
// the full remainder to the BE application at maximum frequency — and
// reports each pair's power normalized to the LS-peak budget. The paper
// measures overloads of 2.04 %–12.57 % across all 18 pairs.
func Fig2PowerOverload(env *Env) ([]Fig2Row, *trace.Table) {
	tbl := trace.NewTable("Fig. 2 — co-location power normalized to the power budget (20% load)",
		"pair", "budget_w", "power_w", "power/budget", "overload")
	var rows []Fig2Row
	for _, pair := range Pairs() {
		ls, be := pair.LS, pair.BE
		budget := env.Budget(ls)
		cfg := hw.Complement(env.Spec, JustEnough(ls.Name), env.Spec.FreqMax)
		st, err := sim.NewOracle(ls, be, 1, nil).Measure(cfg, 0.2*ls.PeakQPS)
		if err != nil {
			panic(err)
		}
		r := Fig2Row{
			LS: ls.Name, BE: be.Name,
			BudgetW: float64(budget),
			PowerW:  float64(st.TruePower),
			Ratio:   float64(st.TruePower / budget),
		}
		r.Overloads = r.Ratio > 1
		rows = append(rows, r)
		tbl.Addf(ls.Name+"+"+be.Name, r.BudgetW, r.PowerW, r.Ratio, fmt.Sprintf("%v", r.Overloads))
	}
	return rows, tbl
}
