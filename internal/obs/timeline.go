package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// TimelineSchema tags the JSON timeline document; bump on breaking
// change.
const TimelineSchema = "sturgeon/timeline/v1"

// Rollup resolutions (seconds) every series carries beyond the raw
// per-interval ring.
var timelineRollups = [...]int{10, 60}

// DefaultRawCap bounds the raw per-interval ring per series;
// DefaultBinCap bounds each rollup ring. At 60 s resolution the default
// retains a full simulated day.
const (
	DefaultRawCap = 4096
	DefaultBinCap = 1536
)

// Point is one raw sample (simulated seconds, value).
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Bin is one rollup bucket covering (T0, T0+res]: min/max/sum/count of
// the raw samples that fell in it.
type Bin struct {
	T0    float64 `json:"t0"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
	Count int64   `json:"count"`
}

// rollup accumulates one resolution tier: sealed bins in a bounded
// ring plus the currently-open bin.
type rollup struct {
	resS   int
	bins   ring[Bin]
	cur    Bin
	curSet bool
}

func (r *rollup) observe(t, v float64) {
	// Bucket index for half-open coverage (t0, t0+res]: integral t on a
	// res boundary seals into the bin ending there.
	b := math.Ceil(t/float64(r.resS)) - 1
	if b < 0 {
		b = 0
	}
	t0 := b * float64(r.resS)
	if r.curSet && t0 != r.cur.T0 {
		r.seal()
	}
	if !r.curSet {
		r.cur = Bin{T0: t0, Min: v, Max: v}
		r.curSet = true
	}
	if v < r.cur.Min {
		r.cur.Min = v
	}
	if v > r.cur.Max {
		r.cur.Max = v
	}
	r.cur.Sum += v
	r.cur.Count++
}

func (r *rollup) seal() {
	if !r.curSet {
		return
	}
	r.bins.push(r.cur)
	r.curSet = false
}

// snapshot returns sealed bins oldest-first plus the open bin.
func (r *rollup) snapshot() []Bin {
	out := r.bins.appendFrom(make([]Bin, 0, r.bins.n+1), 0)
	if r.curSet {
		out = append(out, r.cur)
	}
	return out
}

func (r *rollup) reset() {
	r.bins.reset()
	r.curSet = false
}

// TSeries is one recorded time series: a bounded raw ring plus 10s/60s
// min/max/sum/count rollups. Observations must arrive in simulated-time
// order; a sample at t <= the previous one resets the series, which is
// how a sink shared across several runs (cmd/repro -exp all) keeps the
// exported timeline describing the last run. All methods are nil-safe.
type TSeries struct {
	mu    sync.Mutex
	name  string
	raw   ring[Point]
	lastT float64
	seen  bool
	tiers []rollup
}

func newTSeries(name string, rawCap int) *TSeries {
	if rawCap <= 0 {
		rawCap = DefaultRawCap
	}
	s := &TSeries{name: name, raw: newRing[Point](rawCap)}
	s.tiers = make([]rollup, len(timelineRollups))
	for i, res := range timelineRollups {
		s.tiers[i] = rollup{resS: res, bins: newRing[Bin](DefaultBinCap)}
	}
	return s
}

// Observe records one sample. Non-finite values are dropped; a
// non-advancing timestamp restarts the series (new run).
func (s *TSeries) Observe(t, v float64) {
	if s == nil || math.IsNaN(t) || math.IsInf(t, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen && t <= s.lastT {
		s.raw.reset()
		for i := range s.tiers {
			s.tiers[i].reset()
		}
	}
	s.lastT, s.seen = t, true
	s.raw.push(Point{T: t, V: v})
	for i := range s.tiers {
		s.tiers[i].observe(t, v)
	}
}

// Recorder registers and feeds named time series. Series handles are
// resolved once (like metric handles) and fed from the cluster's serial
// merge, so recording needs no per-sample locking beyond the series
// mutex. All methods are nil-safe.
type Recorder struct {
	mu     sync.Mutex
	rawCap int
	series map[string]*TSeries
}

// NewRecorder builds a recorder whose series retain rawCap raw samples
// (<= 0 selects DefaultRawCap).
func NewRecorder(rawCap int) *Recorder {
	return &Recorder{rawCap: rawCap, series: make(map[string]*TSeries)}
}

// Series resolves (registering on first use) the named series. A nil
// recorder returns nil, and a nil *TSeries no-ops on Observe, so
// callers resolve and feed unconditionally.
func (r *Recorder) Series(name string) *TSeries {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = newTSeries(name, r.rawCap)
		r.series[name] = s
	}
	return s
}

// SeriesDoc is one exported series: raw tail plus every rollup tier.
type SeriesDoc struct {
	Name    string    `json:"name"`
	Dropped int64     `json:"dropped"`
	Raw     []Point   `json:"raw"`
	Rollups []BinsDoc `json:"rollups"`
}

// BinsDoc is one rollup tier of a series.
type BinsDoc struct {
	ResS    int   `json:"res_s"`
	Dropped int64 `json:"dropped"`
	Bins    []Bin `json:"bins"`
}

// TimelineDoc is the persisted timeline ("sturgeon/timeline/v1"):
// every recorded series, sorted by name.
type TimelineDoc struct {
	Schema string      `json:"schema"`
	Series []SeriesDoc `json:"series"`
}

// Validate implements jsonio.Validator.
func (d *TimelineDoc) Validate() error {
	if d.Schema != TimelineSchema {
		return fmt.Errorf("obs: timeline schema %q, want %q", d.Schema, TimelineSchema)
	}
	prevName := ""
	for i, s := range d.Series {
		if s.Name == "" {
			return fmt.Errorf("obs: series %d has empty name", i)
		}
		if s.Name <= prevName {
			return fmt.Errorf("obs: series %q out of order (after %q)", s.Name, prevName)
		}
		prevName = s.Name
		if s.Dropped < 0 {
			return fmt.Errorf("obs: series %q has negative dropped count", s.Name)
		}
		lastT := math.Inf(-1)
		for j, p := range s.Raw {
			if math.IsNaN(p.T) || math.IsInf(p.T, 0) || math.IsNaN(p.V) || math.IsInf(p.V, 0) {
				return fmt.Errorf("obs: series %q raw point %d not finite", s.Name, j)
			}
			if p.T <= lastT {
				return fmt.Errorf("obs: series %q raw point %d time %v not increasing", s.Name, j, p.T)
			}
			lastT = p.T
		}
		prevRes := 0
		for _, r := range s.Rollups {
			if r.ResS <= prevRes {
				return fmt.Errorf("obs: series %q rollup resolution %ds not increasing", s.Name, r.ResS)
			}
			prevRes = r.ResS
			if r.Dropped < 0 {
				return fmt.Errorf("obs: series %q rollup %ds has negative dropped count", s.Name, r.ResS)
			}
			lastT0 := math.Inf(-1)
			for j, b := range r.Bins {
				switch {
				case math.IsNaN(b.T0) || math.IsInf(b.T0, 0) || b.T0 < 0:
					return fmt.Errorf("obs: series %q rollup %ds bin %d has invalid t0 %v", s.Name, r.ResS, j, b.T0)
				case b.T0 <= lastT0:
					return fmt.Errorf("obs: series %q rollup %ds bin %d t0 %v not increasing", s.Name, r.ResS, j, b.T0)
				case b.T0 != math.Trunc(b.T0/float64(r.ResS))*float64(r.ResS):
					return fmt.Errorf("obs: series %q rollup %ds bin %d t0 %v misaligned", s.Name, r.ResS, j, b.T0)
				case b.Count <= 0:
					return fmt.Errorf("obs: series %q rollup %ds bin %d has count %d", s.Name, r.ResS, j, b.Count)
				case math.IsNaN(b.Min) || math.IsInf(b.Min, 0) || math.IsNaN(b.Max) || math.IsInf(b.Max, 0) || math.IsNaN(b.Sum) || math.IsInf(b.Sum, 0):
					return fmt.Errorf("obs: series %q rollup %ds bin %d not finite", s.Name, r.ResS, j)
				case b.Min > b.Max:
					return fmt.Errorf("obs: series %q rollup %ds bin %d min %v > max %v", s.Name, r.ResS, j, b.Min, b.Max)
				}
				// Mean must sit inside [min, max] modulo float slop.
				mean := b.Sum / float64(b.Count)
				slop := 1e-9 * (1 + math.Abs(b.Sum))
				if mean < b.Min-slop || mean > b.Max+slop {
					return fmt.Errorf("obs: series %q rollup %ds bin %d mean %v outside [%v, %v]", s.Name, r.ResS, j, mean, b.Min, b.Max)
				}
				lastT0 = b.T0
			}
		}
	}
	return nil
}

// Doc snapshots the recorder as the persistable timeline document,
// series sorted by name. A nil recorder yields an empty (but valid)
// document.
func (r *Recorder) Doc() *TimelineDoc {
	d := &TimelineDoc{Schema: TimelineSchema}
	if r == nil {
		return d
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.series))
	for name := range r.series {
		names = append(names, name)
	}
	sort.Strings(names)
	series := make([]*TSeries, len(names))
	for i, name := range names {
		series[i] = r.series[name]
	}
	r.mu.Unlock()
	for i, s := range series {
		s.mu.Lock()
		sd := SeriesDoc{
			Name:    names[i],
			Dropped: s.raw.dropped,
			Raw:     s.raw.appendFrom(make([]Point, 0, s.raw.n), 0),
		}
		for t := range s.tiers {
			tier := &s.tiers[t]
			sd.Rollups = append(sd.Rollups, BinsDoc{
				ResS:    tier.resS,
				Dropped: tier.bins.dropped,
				Bins:    tier.snapshot(),
			})
		}
		s.mu.Unlock()
		d.Series = append(d.Series, sd)
	}
	return d
}
