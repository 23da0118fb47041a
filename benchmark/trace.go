package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one crossing of a layer boundary — or, for a boundary crossed
// too often to record singly, every crossing within one simulated
// second. Busy is the host time spent inside the boundary; for a single
// crossing it equals End−Start.
type span struct {
	Name   string  `json:"name"`
	Trace  string  `json:"trace"` // workload/pair, workload/unit or workload/epoch
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = no parent
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Count  int64   `json:"count"`
	Busy   int64   `json:"busy_ns"`
	SimS   float64 `json:"sim_s,omitempty"` // simulated second of an aggregate span
}

// tracer appends spans to a preallocated in-memory slice; nothing is
// written until the run ends. It is used from one goroutine only: every
// traced simulator run steps at Parallelism 1 and the control-plane
// replay is a serial loop.
type tracer struct {
	t0    time.Time
	trace string
	spans []span
	open  []int          // IDs of the begun, not yet ended spans
	agg   map[string]int // boundary name → ID of its newest aggregate span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), agg: map[string]int{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return 0
	}
	return t.open[len(t.open)-1]
}

// begin opens a span that later spans nest under until end is called.
func (t *tracer) begin(name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Trace: t.trace, ID: id, Parent: t.parent(), Start: t.now()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	s := &t.spans[id-1]
	s.End = t.now()
	s.Count, s.Busy = 1, s.End-s.Start
	t.open = t.open[:len(t.open)-1]
}

// leaf records one completed crossing under the innermost open span.
func (t *tracer) leaf(name string, start, end int64) {
	t.spans = append(t.spans, span{Name: name, Trace: t.trace, ID: len(t.spans) + 1,
		Parent: t.parent(), Start: start, End: end, Count: 1, Busy: end - start})
}

// aggregate folds one crossing into the boundary's span of simulated
// second simS, opening that span on the second's first crossing.
func (t *tracer) aggregate(name string, simS float64, start, end int64) {
	if id, ok := t.agg[name]; ok {
		if s := &t.spans[id-1]; s.SimS == simS && s.Parent == t.parent() {
			s.End = end
			s.Count++
			s.Busy += end - start
			return
		}
	}
	t.leaf(name, start, end)
	t.spans[len(t.spans)-1].SimS = simS
	t.agg[name] = len(t.spans)
}

// calls and busy total a boundary's crossings and the time inside it.
func (t *tracer) calls(name string) float64 {
	var n int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			n += t.spans[i].Count
		}
	}
	return float64(n)
}

func (t *tracer) busy(name string) float64 {
	var ns int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			ns += t.spans[i].Busy
		}
	}
	return float64(ns) / 1e9
}

// self is a layer's own time: its spans' busy time minus the busy time
// of the spans directly beneath them.
func (t *tracer) self(name string) float64 {
	var ns int64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name {
			ns += s.Busy
		} else if s.Parent > 0 && t.spans[s.Parent-1].Name == name {
			ns -= s.Busy
		}
	}
	return float64(ns) / 1e9
}

// spanDoc is the span file written to the -trace directory.
type spanDoc struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// finish ends a traced pass: it reports the span count and, when the
// run was given a trace directory, writes the span file there.
func (t *tracer) finish(cfg runConfig, rep *report) error {
	rep.set("trace.spans", float64(len(t.spans)))
	if cfg.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spanDoc{Schema: "sturgeon/benchspans/v1", Workload: cfg.workload, Seed: cfg.seed, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.traceDir, cfg.workload+".spans.json"), data, 0o644)
}
