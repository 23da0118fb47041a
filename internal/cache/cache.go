// Package cache models a way-partitioned last-level cache (Intel CAT
// style) and its performance consequences: per-application miss-ratio
// curves, the resulting cycles-per-instruction inflation, and contention
// on the shared memory bus behind the cache.
//
// These are the mechanisms that make LLC ways a meaningful resource in
// Sturgeon's <C, F, L> configurations: "just-enough" ways keep an
// application near its compulsory-miss floor, and harvesting ways both
// slows the victim and reduces its memory-bandwidth footprint (the
// indirect regulation the paper's balancer exploits, §VII-C).
package cache

import (
	"fmt"
	"math"

	"sturgeon/internal/hw"
)

// MRC is an exponential-decay miss-ratio curve: misses per kilo-instruction
// as a function of allocated ways. MPKI(w) decays from MPKI1 (a single way)
// toward MPKIInf (the compulsory/capacity floor with unlimited cache), with
// HalfWays controlling how quickly extra ways help — roughly the number of
// additional ways that halves the excess misses.
type MRC struct {
	MPKI1    float64
	MPKIInf  float64
	HalfWays float64
}

// Validate reports whether the curve is well-formed.
func (m MRC) Validate() error {
	switch {
	case m.MPKI1 < m.MPKIInf:
		return fmt.Errorf("cache: MPKI1 %.3f below floor %.3f", m.MPKI1, m.MPKIInf)
	case m.MPKIInf < 0:
		return fmt.Errorf("cache: negative MPKI floor %.3f", m.MPKIInf)
	case m.HalfWays <= 0:
		return fmt.Errorf("cache: HalfWays %.3f must be positive", m.HalfWays)
	}
	return nil
}

// MPKI returns misses per kilo-instruction with w allocated ways. Zero
// ways behaves like one (an application cannot run fully uncached; CAT
// always leaves at least one way reachable).
func (m MRC) MPKI(w int) float64 {
	if w < 1 {
		w = 1
	}
	excess := m.MPKI1 - m.MPKIInf
	return m.MPKIInf + excess*math.Exp2(-float64(w-1)/m.HalfWays)
}

// MarginalMPKI returns the miss reduction from granting one more way.
func (m MRC) MarginalMPKI(w int) float64 {
	return m.MPKI(w) - m.MPKI(w+1)
}

// CPIModel converts cache misses into effective cycles per instruction.
// The miss penalty is fixed in nanoseconds (DRAM latency does not scale
// with core frequency), so its cycle cost grows linearly with frequency —
// which is exactly why memory-bound applications see diminishing returns
// from DVFS and "prefer" cores over frequency.
type CPIModel struct {
	// CPIBase is the core-bound CPI with an infinite cache.
	CPIBase float64
	// MissPenaltyNs is the average DRAM access penalty.
	MissPenaltyNs float64
}

// CPI returns effective CPI at frequency f with the given MPKI and a
// memory-contention multiplier (1 = uncontended bus).
func (c CPIModel) CPI(f hw.GHz, mpki, contention float64) float64 {
	if contention < 1 {
		contention = 1
	}
	missCycles := mpki / 1000 * c.MissPenaltyNs * contention * float64(f)
	return c.CPIBase + missCycles
}

// BandwidthGBs returns the DRAM traffic generated by an instruction stream
// of the given rate and miss density, assuming 64-byte lines.
func BandwidthGBs(instrPerSec, mpki float64) float64 {
	return instrPerSec * mpki / 1000 * 64 / 1e9
}

// MemBus models the shared memory path behind the LLC. Demand approaching
// the peak inflates effective miss penalties (queueing at the memory
// controller) — the unmanaged shared resource whose contention the paper
// blames for predictor-invisible QoS violations.
type MemBus struct {
	// PeakGBs is the saturation bandwidth.
	PeakGBs float64
}

// DefaultBus returns a bus sized like the quad-channel DDR4-2133 memory of
// the paper's Xeon E5-2630 v4 (≈68 GB/s theoretical; ~85 % achievable).
func DefaultBus() MemBus { return MemBus{PeakGBs: 58} }

// Contention returns the miss-penalty multiplier for a total bus demand.
// It follows an M/M/1-like blow-up ρ/(2(1−ρ)) added to 1, capped so the
// model stays finite past saturation.
func (b MemBus) Contention(demandGBs float64) float64 {
	if b.PeakGBs <= 0 {
		return 1
	}
	rho := demandGBs / b.PeakGBs
	if rho < 0 {
		rho = 0
	}
	const cap = 6.0
	if rho >= 1 {
		return cap
	}
	m := 1 + rho*rho/(2*(1-rho))
	if m > cap {
		return cap
	}
	return m
}

// Settle runs the short fixed point that couples co-runners through the
// bus: three rounds in which demand(c) reports the total bandwidth drawn
// at contention c, each round's demand setting the next contention. It
// returns the final contention and the last demand; the states demand
// computed on its last call are the settled ones.
func (b MemBus) Settle(demand func(contention float64) float64) (contention, gbs float64) {
	contention = 1
	for i := 0; i < 3; i++ {
		gbs = demand(contention)
		contention = b.Contention(gbs)
	}
	return contention, gbs
}

// Achieved returns the bandwidth the bus actually delivers for a demand
// (demand beyond saturation is clipped).
func (b MemBus) Achieved(demandGBs float64) float64 {
	if demandGBs <= b.PeakGBs {
		return demandGBs
	}
	return b.PeakGBs
}
