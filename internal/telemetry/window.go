// Package telemetry provides the measurement substrate the paper assumes
// datacenters already deploy (§V-A): sliding measurement windows with
// exact quantiles for tail latencies, and a recorder that accumulates
// offline training samples for the performance/power models.
package telemetry

import (
	"math"
	"sort"
)

// Window is a fixed-capacity sliding window of observations supporting
// exact quantiles, mean and extrema over the most recent Cap samples —
// the per-interval measurement primitive of the paper's 1 s control loop.
//
// Quantiles are served from an incrementally maintained sorted shadow of
// the ring buffer, so steady-state Observe+Quantile performs zero
// allocations. The shadow holds the same multiset as the buffer, and a
// sorted multiset of ordinary floats has exactly one arrangement, so
// results are bit-identical to sorting a fresh copy. Samples without
// that uniqueness property (NaN, negative zero) divert Quantile to the
// original copy-and-sort path until they age out of the window.
type Window struct {
	cap  int
	buf  []float64
	next int
	full bool

	sorted   []float64
	sortedOK bool
	exotic   int // resident samples the incremental shadow can't order
}

// NewWindow returns a window keeping the latest cap observations.
func NewWindow(cap int) *Window {
	if cap <= 0 {
		cap = 1
	}
	return &Window{
		cap:      cap,
		buf:      make([]float64, 0, cap),
		sorted:   make([]float64, 0, cap),
		sortedOK: true,
	}
}

// exoticSample reports values whose sorted position is not determined by
// the < relation alone: NaN (unordered) and -0.0 (ties +0.0 bitwise
// unequal). Both break the unique-arrangement argument the incremental
// shadow relies on.
func exoticSample(x float64) bool {
	return x != x || (x == 0 && math.Signbit(x))
}

// Observe appends one observation, evicting the oldest when full.
func (w *Window) Observe(x float64) {
	var old float64
	evict := false
	if len(w.buf) < w.cap {
		w.buf = append(w.buf, x)
	} else {
		old = w.buf[w.next]
		w.buf[w.next] = x
		w.next = (w.next + 1) % w.cap
		w.full = true
		evict = true
	}
	if exoticSample(x) || (evict && exoticSample(old)) {
		if exoticSample(x) {
			w.exotic++
		}
		if evict && exoticSample(old) {
			w.exotic--
		}
		w.sortedOK = false
		return
	}
	if w.exotic > 0 || !w.sortedOK {
		w.sortedOK = false // rebuilt lazily once the window is clean
		return
	}
	if evict {
		i := sort.SearchFloat64s(w.sorted, old)
		copy(w.sorted[i:], w.sorted[i+1:])
		w.sorted = w.sorted[:len(w.sorted)-1]
	}
	i := sort.SearchFloat64s(w.sorted, x)
	w.sorted = append(w.sorted, 0)
	copy(w.sorted[i+1:], w.sorted[i:])
	w.sorted[i] = x
}

// Len returns the number of retained observations.
func (w *Window) Len() int { return len(w.buf) }

// snapshot returns a sorted copy of the window contents.
func (w *Window) snapshot() []float64 {
	s := append([]float64(nil), w.buf...)
	sort.Float64s(s)
	return s
}

// Quantile returns the exact p-quantile over the window (NaN when empty).
func (w *Window) Quantile(p float64) float64 {
	var s []float64
	if w.exotic > 0 {
		s = w.snapshot()
	} else {
		if !w.sortedOK {
			w.sorted = append(w.sorted[:0], w.buf...)
			sort.Float64s(w.sorted)
			w.sortedOK = true
		}
		s = w.sorted
	}
	if len(s) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	idx := p * float64(len(s)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Mean returns the window average (NaN when empty).
func (w *Window) Mean() float64 {
	if len(w.buf) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range w.buf {
		sum += v
	}
	return sum / float64(len(w.buf))
}

// Max returns the window maximum (NaN when empty).
func (w *Window) Max() float64 {
	if len(w.buf) == 0 {
		return math.NaN()
	}
	m := w.buf[0]
	for _, v := range w.buf[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Reset clears the window.
func (w *Window) Reset() {
	w.buf = w.buf[:0]
	w.next = 0
	w.full = false
	w.sorted = w.sorted[:0]
	w.sortedOK = true
	w.exotic = 0
}
