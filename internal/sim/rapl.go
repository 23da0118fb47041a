package sim

import "sturgeon/internal/hw"

// RAPLCap models firmware-level power capping (Intel RAPL's package
// power limit): whenever the measured draw exceeds the limit, the
// package throttles *every* core's frequency one step; with sustained
// headroom it releases one step, up to each allocation's configured
// frequency. This is the indiscriminate mechanism the paper's
// introduction contrasts with software co-location management — it keeps
// the node safe but cannot tell the latency-critical cores from the
// best-effort ones.
type RAPLCap struct {
	Spec  hw.Spec
	Limit float64 // watts

	// throttle is the number of DVFS steps currently forced off every
	// allocation.
	throttle int
}

// Apply clamps a desired configuration by the current throttle state and
// returns what the firmware actually grants.
func (r *RAPLCap) Apply(cfg hw.Config) hw.Config {
	if r.throttle <= 0 {
		return cfg
	}
	down := func(f hw.GHz) hw.GHz {
		lvl := r.Spec.LevelOfFreq(f) - r.throttle
		if lvl < 0 {
			lvl = 0
		}
		return r.Spec.FreqAtLevel(lvl)
	}
	cfg.LS.Freq = down(cfg.LS.Freq)
	cfg.BE.Freq = down(cfg.BE.Freq)
	return cfg
}

// raplReleaseHeadroomW is how far below the limit the draw must sit
// before a throttle step is released.
const raplReleaseHeadroomW = 3

// Observe feeds one interval's measured power and updates the throttle.
func (r *RAPLCap) Observe(watts float64) {
	switch {
	case watts > r.Limit:
		// Firmware reacts hard: enough steps to clear the excess at
		// roughly 2 W per step across the package.
		steps := 1 + int((watts-r.Limit)/2)
		r.throttle += steps
		if max := r.Spec.NumFreqLevels() - 1; r.throttle > max {
			r.throttle = max
		}
	case watts < r.Limit-raplReleaseHeadroomW && r.throttle > 0:
		r.throttle--
	}
}

// Throttle returns the current forced step count.
func (r *RAPLCap) Throttle() int { return r.throttle }
