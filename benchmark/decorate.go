package main

import (
	"context"
	"time"

	"sturgeon/internal/cluster"
	"sturgeon/internal/control"
	"sturgeon/internal/coordinator"
	"sturgeon/internal/core"
	"sturgeon/internal/hw"
	"sturgeon/internal/obs"
	"sturgeon/internal/power"
	"sturgeon/internal/workload"
)

// The decorators below measure the program from outside: each wraps a
// value of an interface the program already accepts, times the calls
// that cross it and forwards everything else. The engines discover
// optional behaviour by type assertion, so every decorator must answer
// the same assertions its inner value would — a decorator that dropped
// control.Steady would silently switch off the event engine's
// memoization and poison every number measured through it
// (decorate_test.go pins the transparency).

// ticker timestamps every call of a load trace. Both cluster engines
// and sim.Runner read the trace exactly once per simulated second they
// evaluate, at its start, so consecutive ticks bound one evaluated
// second — with no interface to forward, this is the one probe cheap
// and transparent enough to leave on in the untraced runs.
type ticker struct {
	t0 time.Time
	ns []int64
}

func newTicker(capacity int) *ticker {
	return &ticker{t0: time.Now(), ns: make([]int64, 0, capacity)}
}

func (k *ticker) wrap(tr workload.Trace) workload.Trace {
	return func(t float64) float64 {
		k.ns = append(k.ns, int64(time.Since(k.t0)))
		return tr(t)
	}
}

// gapsUS closes the open interval at the current time and returns the
// host microseconds between consecutive ticks.
func (k *ticker) gapsUS() []float64 {
	end := int64(time.Since(k.t0))
	dst := make([]float64, 0, len(k.ns))
	for i, ns := range k.ns {
		next := end
		if i+1 < len(k.ns) {
			next = k.ns[i+1]
		}
		dst = append(dst, float64(next-ns)/1e3)
	}
	return dst
}

// tracedController times Decide. after, when set, sees every decision
// with its duration (the capture hook of the layer replays).
type tracedController struct {
	inner control.Controller
	tr    *tracer
	name  string
	// perSecond folds the crossings of one simulated second into one
	// aggregate span: a fleet crosses this boundary millions of times.
	perSecond bool
	after     func(ob control.Observation, next hw.Config, ns int64)
}

func (c *tracedController) Name() string { return c.inner.Name() }

func (c *tracedController) Decide(ob control.Observation) hw.Config {
	start := c.tr.now()
	next := c.inner.Decide(ob)
	end := c.tr.now()
	if c.perSecond {
		c.tr.aggregate(c.name, ob.Time, start, end)
	} else {
		c.tr.leaf(c.name, start, end)
	}
	if c.after != nil {
		c.after(ob, next, end-start)
	}
	return next
}

// SteadyKey implements control.Steady; a non-steady inner controller
// opts out through ok=false, which the interface allows per instance.
func (c *tracedController) SteadyKey() (any, bool) {
	if s, ok := c.inner.(control.Steady); ok {
		return s.SteadyKey()
	}
	return nil, false
}

// SetBudget implements control.CapSetter; controllers without it keep
// their construction-time budget, which is what a dropped call does.
func (c *tracedController) SetBudget(w power.Watts) {
	if s, ok := c.inner.(control.CapSetter); ok {
		s.SetBudget(w)
	}
}

// SetObs implements obs.Instrumentable.
func (c *tracedController) SetObs(sink *obs.Sink) {
	if in, ok := c.inner.(obs.Instrumentable); ok {
		in.SetObs(sink)
	}
}

// sharesInto is the cluster's allocation-free dispatch fast path, which
// it discovers by assertion on an unexported interface of this shape.
type sharesInto interface {
	SharesInto(nodes []cluster.NodeState, dst []float64)
}

// tracedPolicy times the dispatcher's share planning.
type tracedPolicy struct {
	inner cluster.DispatchPolicy
	tr    *tracer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Shares(nodes []cluster.NodeState) []float64 {
	start := p.tr.now()
	out := p.inner.Shares(nodes)
	p.tr.leaf("cluster.shares", start, p.tr.now())
	return out
}

func (p *tracedPolicy) SharesInto(nodes []cluster.NodeState, dst []float64) {
	start := p.tr.now()
	if fast, ok := p.inner.(sharesInto); ok {
		fast.SharesInto(nodes, dst)
	} else {
		copy(dst, p.inner.Shares(nodes))
	}
	p.tr.leaf("cluster.shares", start, p.tr.now())
}

// tracedSteadyPolicy additionally carries the cluster.SteadyShares
// marker, which only a policy that has it itself may pass on.
type tracedSteadyPolicy struct{ tracedPolicy }

func (*tracedSteadyPolicy) SharesSteady() {}

func wrapPolicy(p cluster.DispatchPolicy, tr *tracer) cluster.DispatchPolicy {
	if _, ok := p.(cluster.SteadyShares); ok {
		return &tracedSteadyPolicy{tracedPolicy{inner: p, tr: tr}}
	}
	return &tracedPolicy{inner: p, tr: tr}
}

// tracedTransport times the fleet's coordinator exchange. The cluster
// asserts its transport to *coordinator.NetChaos to read the network
// tallies, so a NetChaos transport is decorated on its Inner field, not
// around it; none of the benchmark's fleets carries one.
type tracedTransport struct {
	inner coordinator.Transport
	tr    *tracer
}

// Report records a failed exchange as a second, empty span, so that
// failures are counted where the calls are.
func (t *tracedTransport) Report(ctx context.Context, r coordinator.NodeReport) (coordinator.Grant, error) {
	start := t.tr.now()
	g, err := t.inner.Report(ctx, r)
	end := t.tr.now()
	t.tr.leaf("coordinator.exchange", start, end)
	if err != nil {
		t.tr.leaf("coordinator.exchange.failed", end, end)
	}
	return g, err
}

func (t *tracedTransport) Status(ctx context.Context) (*coordinator.FleetStatus, error) {
	return t.inner.Status(ctx)
}

// timedPredictor times each query kind of the prediction surface under
// a standalone core.Searcher. Pointers to it are comparable, so the
// searcher's memo stays enabled exactly as with *models.Predictor.
type timedPredictor struct {
	inner                  core.BatchPredictor
	qosNS, powerNS, thptNS int64
	qosN, powerN, thptN    int64
}

func (p *timedPredictor) QoSOK(a hw.Alloc, qps float64) bool {
	start := time.Now()
	ok := p.inner.QoSOK(a, qps)
	p.qosNS += int64(time.Since(start))
	p.qosN++
	return ok
}

func (p *timedPredictor) Throughput(a hw.Alloc) float64 {
	start := time.Now()
	v := p.inner.Throughput(a)
	p.thptNS += int64(time.Since(start))
	p.thptN++
	return v
}

func (p *timedPredictor) PowerW(cfg hw.Config, qps float64) power.Watts {
	start := time.Now()
	w := p.inner.PowerW(cfg, qps)
	p.powerNS += int64(time.Since(start))
	p.powerN++
	return w
}

func (p *timedPredictor) ThroughputBatch(allocs []hw.Alloc, dst []float64) []float64 {
	start := time.Now()
	dst = p.inner.ThroughputBatch(allocs, dst)
	p.thptNS += int64(time.Since(start))
	p.thptN += int64(len(allocs))
	return dst
}
