package obs

import (
	"fmt"
	"math"
	"sync"
)

// TraceSchema tags the JSON trace document; bump on breaking change.
const TraceSchema = "sturgeon/trace/v1"

// Span kinds of the causal decision trail. One span per decision site;
// parent links thread a cap change end to end (coordinator epoch →
// cap grant → governor adjust / search → actuation). DESIGN.md §16
// documents each kind's fields.
const (
	// SpanCoordEpoch is a coordinator arbitration epoch closing
	// (Epoch: the arbitration epoch; Value: pool watts after).
	SpanCoordEpoch = "coord_epoch"
	// SpanCapGrant is one cap change landing on a node (child of the
	// epoch span; Value: the new cap in watts).
	SpanCapGrant = "cap_grant"
	// SpanGovernorAdjust is a model-free governor frequency move
	// (Reason mirrors EventGovernorAdjust).
	SpanGovernorAdjust = "governor_adjust"
	// SpanSearch is an Algorithm 1 predictor re-search (Reason mirrors
	// EventSearch; Value: candidates scored).
	SpanSearch = "search"
	// SpanHarvest is an Algorithm 2 harvest/shed/revert actuation
	// (Reason: the resource moved; Value: the amount).
	SpanHarvest = "harvest"
	// SpanPlacementSolve is one migration-planner epoch (Epoch: the
	// placement epoch; Value: moves applied).
	SpanPlacementSolve = "placement_solve"
	// SpanMigration is one applied BE migration (child of the solve
	// span; Node: the source; Value: predicted gain in units/s).
	SpanMigration = "migration"
	// SpanEviction and SpanReadmission are failure-detector rotation
	// changes.
	SpanEviction    = "eviction"
	SpanReadmission = "readmission"
	// SpanDegraded covers a node's autonomous degraded-mode episode:
	// Start is the missed renewal that began the cap ratchet, End the
	// rejoin grant that restored coordinated operation (Value: the floor
	// the ratchet descended toward).
	SpanDegraded = "degraded"
)

// Span is one entry of the causal trace. Trace groups a causal chain,
// ID identifies the span, Parent links to the causing span (empty for
// roots). All ids are 16-hex-digit strings derived deterministically
// from (run seed, kind, node, start time, per-site ordinal) — never
// random — so traces are byte-identical across engines and stepping
// parallelism. Start/End are simulated seconds.
type Span struct {
	Seq    int64   `json:"seq"`
	Trace  string  `json:"trace"`
	ID     string  `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Kind   string  `json:"kind"`
	Node   string  `json:"node,omitempty"`
	Reason string  `json:"reason,omitempty"`
	Epoch  int     `json:"epoch,omitempty"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Value  float64 `json:"value,omitempty"`
}

// SpanRef names an appended span for parent linking. The zero value
// means "no span" (roots, or emission through a nil tracer).
type SpanRef struct {
	Trace uint64
	ID    uint64
}

// Valid reports whether the ref names a real span.
func (r SpanRef) Valid() bool { return r.ID != 0 }

// DefaultTraceCap is the ring capacity NewTracer uses for cap <= 0.
const DefaultTraceCap = 16384

// Tracer is a bounded ring of spans with monotonically increasing
// sequence numbers, mirroring Journal's drop-oldest discipline. It also
// owns the deterministic id derivation: a per-(kind,node) ordinal
// counter disambiguates repeated spans at the same simulated second.
// All methods are nil-safe.
type Tracer struct {
	mu    sync.Mutex
	seed  int64
	ring  ring[Span]
	seq   int64
	sites map[siteKey]uint64
}

type siteKey struct{ kind, node string }

// NewTracer builds a tracer retaining up to cap spans, deriving span
// ids salted with the run seed.
func NewTracer(seed int64, cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultTraceCap
	}
	return &Tracer{seed: seed, ring: newRing[Span](cap), sites: make(map[siteKey]uint64)}
}

// Seed returns the id-derivation seed (0 through nil).
func (t *Tracer) Seed() int64 {
	if t == nil {
		return 0
	}
	return t.seed
}

// FNV-1a parameters (hash/fnv), inlined so id derivation runs on the
// stepping hot path without the two heap allocations fnv.New64a costs.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// deriveID hashes (seed, kind, node, start bits, ordinal, salt) with
// FNV-1a; the salt separates span-id and trace-id streams. Zero results
// are remapped so SpanRef{ID: 0} stays the "no span" sentinel. The byte
// stream matches the original hash/fnv formulation (little-endian
// integers, NUL+salt between kind and node), so derived ids are stable
// across the inlining.
func deriveID(seed int64, kind, node string, start float64, ordinal uint64, salt byte) uint64 {
	h := fnvU64(fnvOffset64, uint64(seed))
	h = fnvString(h, kind)
	h = (h ^ 0) * fnvPrime64
	h = (h ^ uint64(salt)) * fnvPrime64
	h = fnvString(h, node)
	h = fnvU64(h, math.Float64bits(start))
	h = fnvU64(h, ordinal)
	if h == 0 {
		h = 1
	}
	return h
}

const hexDigits = "0123456789abcdef"

// hexID formats v as 16 lowercase hex digits (fmt.Sprintf("%016x", v)
// without fmt's per-call allocations).
func hexID(v uint64) string {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Append derives ids for sp, stamps the next sequence number and stores
// the span, returning its ref. A valid parent chains sp into the
// parent's trace; otherwise sp roots a fresh trace. Nil tracers return
// the zero ref.
func (t *Tracer) Append(sp Span, parent SpanRef) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := siteKey{kind: sp.Kind, node: sp.Node}
	ord := t.sites[k]
	t.sites[k] = ord + 1
	id := deriveID(t.seed, sp.Kind, sp.Node, sp.Start, ord, 0x5)
	var trace uint64
	if parent.Valid() {
		trace = parent.Trace
		sp.Parent = hexID(parent.ID)
	} else {
		trace = deriveID(t.seed, sp.Kind, sp.Node, sp.Start, ord, 0xA)
		sp.Parent = ""
	}
	sp.Trace = hexID(trace)
	sp.ID = hexID(id)
	t.append(sp)
	return SpanRef{Trace: trace, ID: id}
}

// Adopt re-stamps an already-derived span (from a per-node staging
// tracer) with this tracer's next sequence number and stores it. The
// cluster's serial merge drains staging tracers in node-index order
// through Adopt, which is what keeps fleet span sequence numbers
// independent of the stepping worker count.
func (t *Tracer) Adopt(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.append(sp)
}

// append stores sp under t.mu, assigning the next seq.
func (t *Tracer) append(sp Span) {
	t.seq++
	sp.Seq = t.seq
	t.ring.push(sp)
}

// DrainTo adopts every retained span with Seq > seq into dst (which
// re-stamps sequence numbers, keeping the derived ids) and returns
// this tracer's newest sequence — the caller's next drain cursor.
// Journal.DrainTo's allocation-free contract applies: the contiguous
// sequence numbers index straight into the ring, so a drain costs
// exactly the spans moved.
func (t *Tracer) DrainTo(dst *Tracer, seq int64) int64 {
	if t == nil {
		return seq
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := t.ring.after(t.seq, seq); i < t.ring.n; i++ {
		dst.Adopt(t.ring.at(i))
	}
	return t.seq
}

// Since returns the retained spans with Seq > seq, oldest first.
func (t *Tracer) Since(seq int64) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.appendFrom(nil, t.ring.after(t.seq, seq))
}

// LastSeq returns the newest assigned sequence number.
func (t *Tracer) LastSeq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Dropped returns how many spans the ring has overwritten.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.dropped
}

// TraceDoc is the persisted trace ("sturgeon/trace/v1"): the retained
// span tail, the count the ring dropped before it, and — for
// since-cursor reads — how many requested spans had already been
// overwritten (see Tracer.DocSince).
type TraceDoc struct {
	Schema  string `json:"schema"`
	Dropped int64  `json:"dropped"`
	Missing int64  `json:"missing,omitempty"`
	Spans   []Span `json:"spans"`
}

func validHexID(s string) bool {
	if len(s) != 16 {
		return false
	}
	zero := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

// Validate implements jsonio.Validator.
func (d *TraceDoc) Validate() error {
	if d.Schema != TraceSchema {
		return fmt.Errorf("obs: trace schema %q, want %q", d.Schema, TraceSchema)
	}
	if d.Dropped < 0 || d.Missing < 0 {
		return fmt.Errorf("obs: negative dropped/missing count (%d/%d)", d.Dropped, d.Missing)
	}
	var last int64
	for i, sp := range d.Spans {
		switch {
		case sp.Kind == "":
			return fmt.Errorf("obs: span %d has empty kind", i)
		case sp.Seq <= last:
			return fmt.Errorf("obs: span %d seq %d not increasing (after %d)", i, sp.Seq, last)
		case !validHexID(sp.ID):
			return fmt.Errorf("obs: span %d id %q not 16 hex digits", i, sp.ID)
		case !validHexID(sp.Trace):
			return fmt.Errorf("obs: span %d trace %q not 16 hex digits", i, sp.Trace)
		case sp.Parent != "" && !validHexID(sp.Parent):
			return fmt.Errorf("obs: span %d parent %q not 16 hex digits", i, sp.Parent)
		case sp.Parent == sp.ID:
			return fmt.Errorf("obs: span %d is its own parent", i)
		case math.IsNaN(sp.Start) || math.IsInf(sp.Start, 0) || sp.Start < 0:
			return fmt.Errorf("obs: span %d carries invalid start %v", i, sp.Start)
		case math.IsNaN(sp.End) || math.IsInf(sp.End, 0) || sp.End < sp.Start:
			return fmt.Errorf("obs: span %d carries invalid end %v (start %v)", i, sp.End, sp.Start)
		case math.IsNaN(sp.Value) || math.IsInf(sp.Value, 0):
			return fmt.Errorf("obs: span %d carries non-finite value", i)
		}
		last = sp.Seq
	}
	return nil
}

// Doc snapshots the tracer as the persistable trace document. A nil
// tracer yields an empty (but valid) document.
func (t *Tracer) Doc() *TraceDoc {
	return &TraceDoc{
		Schema:  TraceSchema,
		Dropped: t.Dropped(),
		Spans:   t.Since(0),
	}
}

// DocSince snapshots the spans after seq. Missing counts spans the
// caller asked for that the ring had already overwritten (the gap
// between seq and the oldest retained span), so clients can tell a
// quiet tracer from a wrapped one.
func (t *Tracer) DocSince(seq int64) *TraceDoc {
	d := &TraceDoc{Schema: TraceSchema, Dropped: t.Dropped()}
	if t == nil {
		return d
	}
	d.Spans = t.Since(seq)
	d.Missing = missingSince(seq, t.LastSeq(), int64(len(d.Spans)))
	return d
}

// missingSince computes how many sequence numbers in (since, last] fell
// outside the returned window of got entries. Sequence numbers are
// contiguous, so the gap is arithmetic.
func missingSince(since, last, got int64) int64 {
	if since < 0 {
		since = 0
	}
	want := last - since
	if want < 0 {
		want = 0
	}
	if m := want - got; m > 0 {
		return m
	}
	return 0
}
