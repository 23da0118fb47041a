package obs

import (
	"fmt"
	"strings"
)

// Sink bundles the halves of the observability layer plus the node
// identity to stamp on everything emitted through it. Components accept
// a *Sink and instrument unconditionally: a nil sink — or a sink with a
// nil half — compiles to no-ops on every path.
type Sink struct {
	Metrics  *Registry
	Journal  *Journal
	Trace    *Tracer
	Timeline *Recorder
	// Node labels every event (Event.Node), span (Span.Node) and
	// node-scoped metric (NodeGauge/NodeCounter) emitted through this
	// sink.
	Node string
	// spanCtx is the causal parent for spans emitted through this sink
	// (set by the cluster's serial merge when a coordinator grant or
	// migration lands on the node, cleared when the node settles). The
	// merge and the fan-out worker phases alternate under the pool's
	// fork-join barrier, so plain accesses never race.
	spanCtx SpanRef
}

// New builds a sink with a fresh registry, a journal of the given
// capacity (<= 0 selects DefaultJournalCap), a tracer and a timeline
// recorder. Span ids are derived with seed 0; runs that want the run
// seed folded in use NewSeeded.
func New(journalCap int) *Sink {
	return NewSeeded(0, journalCap)
}

// NewSeeded builds a sink whose tracer salts deterministic span ids
// with the run seed.
func NewSeeded(seed int64, journalCap int) *Sink {
	return &Sink{
		Metrics:  NewRegistry(),
		Journal:  NewJournal(journalCap),
		Trace:    NewTracer(seed, 0),
		Timeline: NewRecorder(0),
	}
}

// ForNode derives a per-node child sink: same metrics registry, own
// staging journal and tracer (of the given capacity) and the node
// label. The parallel fleet stepping gives each node such a child so
// journal/trace appends never contend or race across nodes; the cluster
// drains the staging rings serially in node-index order (cluster.Run's
// merge), which is what keeps the fleet journal and trace deterministic
// at any stepping parallelism. The timeline recorder is not inherited:
// fleet series are fed only from the serial merge.
func (s *Sink) ForNode(node string, journalCap int) *Sink {
	if s == nil {
		return nil
	}
	child := &Sink{Metrics: s.Metrics, Journal: NewJournal(journalCap), Node: node}
	if s.Trace != nil {
		child.Trace = NewTracer(s.Trace.Seed(), journalCap)
	}
	return child
}

// Counter resolves a counter from the sink's registry (nil-safe).
func (s *Sink) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.Metrics.Counter(name)
}

// Gauge resolves a gauge from the sink's registry (nil-safe).
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.Metrics.Gauge(name)
}

// Histogram resolves a histogram from the sink's registry (nil-safe).
func (s *Sink) Histogram(name string, bounds ...float64) *Histogram {
	if s == nil {
		return nil
	}
	return s.Metrics.Histogram(name, bounds...)
}

// labelEscaper applies the Prometheus exposition escapes for label
// values: backslash, double quote and newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Labeled renders a metric name with one label: Labeled("x", "node",
// "n3") -> `x{node="n3"}`. The value is escaped per the Prometheus
// text format (`\` -> `\\`, `"` -> `\"`, newline -> `\n`) so hostile
// node names cannot break the exposition out of the label block.
func Labeled(name, key, value string) string {
	return fmt.Sprintf("%s{%s=\"%s\"}", name, key, labelEscaper.Replace(value))
}

// NodeGauge resolves a gauge labeled with the sink's node identity
// (plain name when the sink carries none).
func (s *Sink) NodeGauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	if s.Node != "" {
		name = Labeled(name, "node", s.Node)
	}
	return s.Metrics.Gauge(name)
}

// NodeCounter resolves a counter labeled with the sink's node identity.
func (s *Sink) NodeCounter(name string) *Counter {
	if s == nil {
		return nil
	}
	if s.Node != "" {
		name = Labeled(name, "node", s.Node)
	}
	return s.Metrics.Counter(name)
}

// Emit journals one event, stamping the sink's node label when the
// event carries none. No-op through a nil sink or nil journal.
func (s *Sink) Emit(ev Event) {
	if s == nil || s.Journal == nil {
		return
	}
	if ev.Node == "" {
		ev.Node = s.Node
	}
	s.Journal.Append(ev)
}

// Active reports whether the sink journals events — components use it to
// skip building events that would be discarded anyway.
func (s *Sink) Active() bool { return s != nil && s.Journal != nil }

// Span traces one decision, stamping the sink's node label when the
// span carries none and chaining under the sink's span context (root
// when none is set). Returns the zero ref through a nil sink or tracer.
func (s *Sink) Span(sp Span) SpanRef {
	if s == nil || s.Trace == nil {
		return SpanRef{}
	}
	if sp.Node == "" {
		sp.Node = s.Node
	}
	return s.Trace.Append(sp, s.spanCtx)
}

// ChildSpan traces one decision under an explicit parent, ignoring the
// sink's span context.
func (s *Sink) ChildSpan(sp Span, parent SpanRef) SpanRef {
	if s == nil || s.Trace == nil {
		return SpanRef{}
	}
	if sp.Node == "" {
		sp.Node = s.Node
	}
	return s.Trace.Append(sp, parent)
}

// SetSpanContext makes ref the causal parent of subsequent Span calls
// through this sink; the zero ref clears the context.
func (s *Sink) SetSpanContext(ref SpanRef) {
	if s == nil {
		return
	}
	s.spanCtx = ref
}

// Series resolves a timeline series from the sink's recorder
// (nil-safe; the returned handle no-ops when nil).
func (s *Sink) Series(name string) *TSeries {
	if s == nil {
		return nil
	}
	return s.Timeline.Series(name)
}

// Instrumentable is implemented by components that accept an
// observability sink after construction (controllers, guards,
// coordinators). The cluster runtime uses it to wire per-node sinks
// without knowing concrete controller types.
type Instrumentable interface {
	SetObs(*Sink)
}
