package workload

import "math"

// Trace maps simulation time (seconds) to an LS load expressed as a
// fraction of the service's peak QPS. Traces model the cluster-level
// dispatcher of Fig. 4: the node simulator multiplies the fraction by the
// service's PeakQPS.
type Trace func(t float64) float64

// Constant returns a flat trace at the given fraction.
func Constant(frac float64) Trace {
	return func(float64) float64 { return frac }
}

// Triangle returns the paper's fluctuating evaluation input (§VII-A): the
// load climbs linearly from lo to hi over the first half of duration and
// descends back to lo over the second half. Outside [0, duration] the
// trace holds the boundary value.
func Triangle(lo, hi, duration float64) Trace {
	return func(t float64) float64 {
		switch {
		case t <= 0:
			return lo
		case t >= duration:
			return lo
		case t < duration/2:
			return lo + (hi-lo)*t/(duration/2)
		default:
			return hi - (hi-lo)*(t-duration/2)/(duration/2)
		}
	}
}

// Ramp returns a one-way linear ramp from lo to hi over duration, holding
// hi afterwards — the Fig. 11 input (20 % → 50 %).
func Ramp(lo, hi, duration float64) Trace {
	return func(t float64) float64 {
		switch {
		case t <= 0:
			return lo
		case t >= duration:
			return hi
		default:
			return lo + (hi-lo)*t/duration
		}
	}
}

// Diurnal returns a day-night sinusoid between lo and hi with the given
// period, starting at the trough (datacenter night).
func Diurnal(lo, hi, period float64) Trace {
	return func(t float64) float64 {
		phase := 2 * math.Pi * t / period
		return lo + (hi-lo)*(1-math.Cos(phase))/2
	}
}

// Steps returns a staircase trace: each level is held for stepDur seconds,
// cycling back to the first level at the end.
func Steps(levels []float64, stepDur float64) Trace {
	return func(t float64) float64 {
		if len(levels) == 0 {
			return 0
		}
		if t < 0 {
			t = 0
		}
		i := int(t/stepDur) % len(levels)
		return levels[i]
	}
}

// Stair is a piecewise-constant diurnal load: each level holds for
// StepDurS whole seconds, cycling. Unlike the Trace closures above it
// also *declares* where its value can change (BreakSteps), which is
// what lets the event-driven cluster engine skip the flat stretches —
// a closure trace is opaque, so the engine must assume it moves every
// second.
type Stair struct {
	// Levels are the load fractions, one per tread.
	Levels []float64
	// StepDurS is the tread width in whole seconds (min 1).
	StepDurS int
}

// Trace returns the staircase as an ordinary Trace.
func (s Stair) Trace() Trace {
	dur := s.StepDurS
	if dur < 1 {
		dur = 1
	}
	return Steps(s.Levels, float64(dur))
}

// BreakSteps returns every step index in [0, durationS) where the trace
// value may change, in the cluster engine's sampling convention: step
// index s covers the interval ending at t = s+1, so a tread beginning
// at second k·StepDurS first shows up at step k·StepDurS − 1. The list
// is step 0 plus each such edge — what a run's Cluster.TraceBreaks
// wants.
func (s Stair) BreakSteps(durationS int) []int {
	dur := s.StepDurS
	if dur < 1 {
		dur = 1
	}
	breaks := []int{0}
	for t := dur - 1; t < durationS; t += dur {
		if t == 0 {
			continue // 1-second treads: the first edge is step 0 itself
		}
		breaks = append(breaks, t)
	}
	return breaks
}
