package obs

import (
	"fmt"
	"math"
	"sync"
)

// EventsSchema tags the JSON events document; bump on breaking change.
const EventsSchema = "sturgeon/events/v1"

// Event types of the decision trail. The set is open — packages may
// journal additional types — but these are the taxonomy the runtime
// emits (DESIGN.md §11 documents each one's fields and meaning).
const (
	// EventSearch marks an Algorithm 1 predictor re-search
	// (Reason: "initial", "load_moved").
	EventSearch = "search_triggered"
	// EventHarvest marks an Algorithm 2 harvest or power shed
	// (Resource: cores/cache/power/parked; Amount: the granularity moved,
	// negative for pure BE throttles).
	EventHarvest = "harvest"
	// EventRevert marks an over-harvest give-back (Resource, Amount as
	// for EventHarvest).
	EventRevert = "revert"
	// EventGuardHold marks an interval the telemetry guard held the
	// configuration because both control signals were unusable.
	EventGuardHold = "guard_hold"
	// EventGovernorAdjust marks a model-free governor frequency move
	// (Reason: shed/ls_up/be_down/be_up/ls_harvest).
	EventGovernorAdjust = "governor_adjust"
	// EventCapGranted marks a coordinator cap change landing on a node
	// (Epoch: arbitration epoch; Value: the new cap in watts).
	EventCapGranted = "cap_granted"
	// EventStaleFreeze marks a node frozen by the coordinator's
	// staleness fallback (Epoch: the arbitration epoch).
	EventStaleFreeze = "stale_freeze"
	// EventLeaseExpired marks the coordinator reclaiming an expired cap
	// lease back into the pool (Epoch: the arbitration epoch; Value: the
	// watts reclaimed above the lease floor).
	EventLeaseExpired = "lease_expired"
	// EventDegradedEnter and EventDegradedExit bracket a node's
	// autonomous degraded mode: a missed lease renewal starts the local
	// cap ratchet toward the lease floor (Value: the cap the ratchet
	// starts from / the cap restored by the rejoin grant; Epoch: the
	// coordination epoch of the miss or rejoin).
	EventDegradedEnter = "degraded_enter"
	EventDegradedExit  = "degraded_exit"
	// EventNodeEvicted and EventNodeReadmitted mark failure-detector
	// rotation changes.
	EventNodeEvicted    = "node_evicted"
	EventNodeReadmitted = "node_readmitted"
	// EventRecoveryCompleted marks a coordinator standing back up from
	// durable state (Reason: the recovery path taken — "clean",
	// "no_snapshot", "torn_log", "corrupt_snapshot", "restore_rejected";
	// Epoch: the recovered arbitration epoch; Value: replayed reports).
	EventRecoveryCompleted = "recovery_completed"
	// EventResidual samples predictor drift: Value is observed minus
	// predicted for the Resource ("power" in watts; "latency" carries the
	// observed slack of a configuration the predictor deemed feasible).
	EventResidual = "residual"
	// EventMigration marks the placement engine moving a BE job off a
	// node (Node: the source; Reason: "starved"/"consolidate"; Amount:
	// the destination node index; Epoch: the placement epoch; Value:
	// the predicted steady-state throughput gain in units/s).
	EventMigration = "migration"
	// EventPlacementSolve marks one migration-planner epoch (Epoch: the
	// placement epoch; Amount: moves applied; Value: summed predicted
	// gain).
	EventPlacementSolve = "placement_solve"
)

// Event is one entry of the decision journal. T is simulated seconds
// (never wall clock — replays must be byte-identical), Seq the per-run
// sequence number assigned at append.
type Event struct {
	Seq  int64   `json:"seq"`
	T    float64 `json:"t"`
	Node string  `json:"node,omitempty"`
	Type string  `json:"type"`
	// Reason qualifies the type (search trigger, governor direction);
	// Resource names the harvested/measured resource.
	Reason   string `json:"reason,omitempty"`
	Resource string `json:"resource,omitempty"`
	// Amount is a discrete move size (cores, ways, frequency levels);
	// Epoch a coordination epoch; Value a continuous payload (watts,
	// residuals).
	Amount int     `json:"amount,omitempty"`
	Epoch  int     `json:"epoch,omitempty"`
	Value  float64 `json:"value,omitempty"`
}

// Journal is a bounded ring of events with monotonically increasing
// sequence numbers. Appends past capacity overwrite the oldest entries
// (counted in Dropped), so a long run keeps a recent decision tail at a
// fixed memory cost. All methods are nil-safe.
type Journal struct {
	mu   sync.Mutex
	ring ring[Event]
	seq  int64
}

// DefaultJournalCap is the ring capacity NewJournal uses for cap <= 0.
const DefaultJournalCap = 16384

// NewJournal builds a journal retaining up to cap events.
func NewJournal(cap int) *Journal {
	if cap <= 0 {
		cap = DefaultJournalCap
	}
	return &Journal{ring: newRing[Event](cap)}
}

// Append stamps ev with the next sequence number and stores it,
// returning the assigned sequence (0 through a nil journal).
func (j *Journal) Append(ev Event) int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	ev.Seq = j.seq
	j.ring.push(ev)
	return ev.Seq
}

// Since returns the retained events with Seq > seq, oldest first. A nil
// journal returns nil; Since(0) returns the full retained tail.
func (j *Journal) Since(seq int64) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.appendFrom(nil, j.ring.after(j.seq, seq))
}

// DrainTo re-appends every retained event with Seq > seq onto dst
// (which stamps its own sequence numbers) and returns this journal's
// newest sequence — the caller's next drain cursor. It serves the
// cluster's per-interval serial merge: sequence numbers are contiguous,
// so the cursor indexes straight into the ring and a drain costs
// exactly the events moved, with no slice allocation (Since would
// allocate one per interval on the stepping hot path).
func (j *Journal) DrainTo(dst *Journal, seq int64) int64 {
	if j == nil {
		return seq
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := j.ring.after(j.seq, seq); i < j.ring.n; i++ {
		dst.Append(j.ring.at(i))
	}
	return j.seq
}

// LastSeq returns the newest assigned sequence number (0 before the
// first append or through nil).
func (j *Journal) LastSeq() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Dropped returns how many events the ring has overwritten.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.dropped
}

// EventsDoc is the persisted journal ("sturgeon/events/v1"): the
// retained tail, the count of events the ring dropped before it, and —
// for since-cursor reads — how many requested events had already been
// overwritten (see Journal.DocSince; absent for full snapshots).
type EventsDoc struct {
	Schema  string  `json:"schema"`
	Dropped int64   `json:"dropped"`
	Missing int64   `json:"missing,omitempty"`
	Events  []Event `json:"events"`
}

// Validate implements jsonio.Validator.
func (d *EventsDoc) Validate() error {
	if d.Schema != EventsSchema {
		return fmt.Errorf("obs: events schema %q, want %q", d.Schema, EventsSchema)
	}
	if d.Dropped < 0 || d.Missing < 0 {
		return fmt.Errorf("obs: negative dropped/missing count (%d/%d)", d.Dropped, d.Missing)
	}
	var last int64
	for i, ev := range d.Events {
		switch {
		case ev.Type == "":
			return fmt.Errorf("obs: event %d has empty type", i)
		case ev.Seq <= last:
			return fmt.Errorf("obs: event %d seq %d not increasing (after %d)", i, ev.Seq, last)
		case math.IsNaN(ev.T) || math.IsInf(ev.T, 0) || ev.T < 0:
			return fmt.Errorf("obs: event %d carries invalid time %v", i, ev.T)
		case math.IsNaN(ev.Value) || math.IsInf(ev.Value, 0):
			return fmt.Errorf("obs: event %d carries non-finite value", i)
		}
		last = ev.Seq
	}
	return nil
}

// Doc snapshots the journal as the persistable events document. A nil
// journal yields an empty (but valid) document.
func (j *Journal) Doc() *EventsDoc {
	return &EventsDoc{
		Schema:  EventsSchema,
		Dropped: j.Dropped(),
		Events:  j.Since(0),
	}
}

// DocSince snapshots the events after seq. Missing counts events the
// caller asked for that the ring had already overwritten — a wrapped
// ring answers a stale cursor with a gap, and this field is how the
// response documents the drop (a quiet journal reports 0).
func (j *Journal) DocSince(seq int64) *EventsDoc {
	d := &EventsDoc{Schema: EventsSchema, Dropped: j.Dropped()}
	if j == nil {
		return d
	}
	d.Events = j.Since(seq)
	d.Missing = missingSince(seq, j.LastSeq(), int64(len(d.Events)))
	return d
}
