package workload

import (
	"sturgeon/internal/cache"
	"sturgeon/internal/hw"
)

// BEState is the steady-state execution of a BE application under an
// allocation and a given memory-contention multiplier.
type BEState struct {
	// ThroughputUPS is best-effort progress in work units per second.
	ThroughputUPS float64
	// IPS is aggregate instructions per second.
	IPS float64
	// BandwidthGBs is the DRAM traffic the application generates.
	BandwidthGBs float64
	// Util is the busy fraction of allocated cores (1 for BE: it always
	// has work, diluted only by its scalability loss).
	Util float64
	// CPI is the effective cycles per instruction.
	CPI float64
	// MPKI is the effective miss density at the allocated ways.
	MPKI float64
}

// BERate evaluates the BE profile on an allocation. BE applications spin
// on all allocated cores, so Util reflects only scaling inefficiency.
func (p *Profile) BERate(a hw.Alloc, contention float64) BEState {
	if a.Cores <= 0 {
		return BEState{}
	}
	mpki := p.MRC.MPKI(a.LLCWays)
	cpi := p.CPI.CPI(a.Freq, mpki, contention)
	perCoreIPS := float64(a.Freq) * 1e9 / cpi
	eff := p.Speedup(a.Cores)
	ips := eff * perCoreIPS
	return BEState{
		ThroughputUPS: ips / p.InstrPerUnit,
		IPS:           ips,
		BandwidthGBs:  cache.BandwidthGBs(ips, mpki),
		Util:          eff / float64(a.Cores),
		CPI:           cpi,
		MPKI:          mpki,
	}
}

// LSState is the steady-state execution of an LS service at a load.
type LSState struct {
	// SvcMean is the mean per-query service time in seconds under the
	// allocation (before queueing).
	SvcMean float64
	// Rho is the offered utilization λ·S/C.
	Rho float64
	// Util is the busy fraction of allocated cores (= min(Rho,1)).
	Util float64
	// IPS is aggregate instructions per second actually executed.
	IPS float64
	// BandwidthGBs is the DRAM traffic generated.
	BandwidthGBs float64
	// CPI is the effective cycles per instruction.
	CPI float64
	// MPKI is the effective miss density.
	MPKI float64
}

// LSRate evaluates the LS profile on an allocation at qps offered load.
func (p *Profile) LSRate(a hw.Alloc, qps, contention float64) LSState {
	if a.Cores <= 0 {
		return LSState{}
	}
	mpki := p.MRC.MPKI(a.LLCWays)
	cpi := p.CPI.CPI(a.Freq, mpki, contention)
	svc := p.InstrPerQuery * cpi / (float64(a.Freq) * 1e9)
	// Hyper-threading: logical cores beyond the physical count add less
	// than a full server's capacity. Queueing keeps a.Cores servers but
	// each runs at the HT-diluted speed.
	svc *= float64(a.Cores) / EffectiveParallelism(a.Cores)
	rho := qps * svc / float64(a.Cores)
	util := rho
	effQPS := qps
	if util > 1 {
		util = 1
		// Saturated: the service completes only what capacity allows.
		effQPS = float64(a.Cores) / svc
	}
	ips := effQPS * p.InstrPerQuery
	return LSState{
		SvcMean:      svc,
		Rho:          rho,
		Util:         util,
		IPS:          ips,
		BandwidthGBs: cache.BandwidthGBs(ips, mpki),
		CPI:          cpi,
		MPKI:         mpki,
	}
}
