package main

import (
	"context"
	"testing"

	"sturgeon/internal/cluster"
	"sturgeon/internal/control"
	"sturgeon/internal/coordinator"
	"sturgeon/internal/hw"
	"sturgeon/internal/obs"
	"sturgeon/internal/power"
)

// plainController implements control.Controller and nothing else.
type plainController struct{ control.Controller }

func TestControllerDecoratorForwardsOptionalInterfaces(t *testing.T) {
	gov := control.NewGovernor(hw.DefaultSpec(), 100)
	var dec control.Controller = &tracedController{inner: gov, tr: newTracer(), name: "control.decide"}

	s, ok := dec.(control.Steady)
	if !ok {
		t.Fatal("decorator dropped control.Steady")
	}
	want, _ := gov.SteadyKey()
	if got, ok := s.SteadyKey(); !ok || got != want {
		t.Fatalf("SteadyKey = %v, %v; want %v, true", got, ok, want)
	}
	cs, ok := dec.(control.CapSetter)
	if !ok {
		t.Fatal("decorator dropped control.CapSetter")
	}
	cs.SetBudget(power.Watts(91))
	if gov.Cap != 91 {
		t.Fatalf("SetBudget not forwarded: governor cap %v", gov.Cap)
	}
	if after, _ := s.SteadyKey(); after == want {
		t.Fatal("SteadyKey did not follow the re-granted cap")
	}
	in, ok := dec.(obs.Instrumentable)
	if !ok {
		t.Fatal("decorator dropped obs.Instrumentable")
	}
	in.SetObs(obs.New(0)) // must reach the governor without panicking
	in.SetObs(nil)

	// A controller without the optional interfaces must not gain them.
	plain := &tracedController{inner: plainController{gov}, tr: newTracer(), name: "control.decide"}
	if _, ok := plain.SteadyKey(); ok {
		t.Fatal("decorator invented a steady key for a controller that has none")
	}
	plain.SetBudget(50)
	if gov.Cap != 91 {
		t.Fatal("SetBudget reached a controller that does not implement CapSetter")
	}
}

func TestPolicyDecoratorForwardsOptionalInterfaces(t *testing.T) {
	nodes := []cluster.NodeState{{Healthy: true}, {Healthy: false}, {Healthy: true}}

	rr := wrapPolicy(cluster.RoundRobin{}, newTracer())
	if _, ok := rr.(cluster.SteadyShares); !ok {
		t.Fatal("decorator dropped cluster.SteadyShares from RoundRobin")
	}
	fast, ok := rr.(sharesInto)
	if !ok {
		t.Fatal("decorator dropped SharesInto")
	}
	dst := make([]float64, len(nodes))
	fast.SharesInto(nodes, dst)
	want := cluster.RoundRobin{}.Shares(nodes)
	for i, w := range want {
		if dst[i] != w || rr.Shares(nodes)[i] != w {
			t.Fatalf("share %d: decorated %v / %v, want %v", i, dst[i], rr.Shares(nodes)[i], w)
		}
	}

	// Skewed keeps a phase counter: it is not steady, and the decorator
	// must not claim it is. Its calls must advance the inner counter
	// exactly once each.
	sk := wrapPolicy(&cluster.Skewed{Amp: 0.7, PeriodS: 10}, newTracer())
	if _, ok := sk.(cluster.SteadyShares); ok {
		t.Fatal("decorator invented cluster.SteadyShares for Skewed")
	}
	ref := &cluster.Skewed{Amp: 0.7, PeriodS: 10}
	for step := 0; step < 5; step++ {
		sk.(sharesInto).SharesInto(nodes, dst)
		for i, w := range ref.Shares(nodes) {
			if dst[i] != w {
				t.Fatalf("step %d share %d: decorated %v, want %v", step, i, dst[i], w)
			}
		}
	}
}

func TestTransportDecoratorForwards(t *testing.T) {
	co, err := coordinator.New(ctlOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	tt := &tracedTransport{inner: &coordinator.Local{C: co}, tr: newTracer()}
	g, err := tt.Report(context.Background(), makeReport(1, 2, 0))
	if err != nil || g.NodeID != cluster.NodeID(0) {
		t.Fatalf("Report = %+v, %v", g, err)
	}
	if _, err := tt.Report(context.Background(), coordinator.NodeReport{}); err == nil || tt.tr.calls("coordinator.exchange.failed") != 1 {
		t.Fatalf("invalid report: err %v, failed %v; want an error counted once", err, tt.tr.calls("coordinator.exchange.failed"))
	}
	st, err := tt.Status(context.Background())
	if err != nil || len(st.Nodes) != 1 {
		t.Fatalf("Status = %+v, %v", st, err)
	}
	if got := tt.tr.calls("coordinator.exchange"); got != 2 {
		t.Fatalf("recorded %v exchange spans, want 2", got)
	}
}

// decorateFleet wraps everything the traced pass wraps.
func decorateFleet(f *fleet, tr *tracer) {
	f.c.Policy = wrapPolicy(f.c.Policy, tr)
	for i, ctrl := range f.c.Ctrls {
		f.c.Ctrls[i] = &tracedController{inner: ctrl, tr: tr, name: "control.decide", perSecond: true}
	}
	if f.c.Coord != nil {
		f.c.Coord.Transport = &tracedTransport{inner: f.c.Coord.Transport, tr: tr}
	}
}

// TestDecoratorsAreTransparent runs both fleet scenarios bare and fully
// decorated: same summary, and on the event engine the same number of
// evaluated seconds — a dropped SteadyKey or SharesSteady would leave
// the summary alone (the engines are equivalent by construction) and
// show only there.
func TestDecoratorsAreTransparent(t *testing.T) {
	for _, w := range []fleetWorkload{
		{name: "fleet-event", build: buildFleetEvent},
		{name: "fleet-step", build: buildFleetStep},
	} {
		cfg := runConfig{seed: 7, quick: true}
		bare, err := runFleetUnit(w, cfg, nil, newTicker(64), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		dec, err := runFleetUnit(w, cfg, tr, newTicker(64), func(f *fleet) { decorateFleet(f, tr) }, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dec.hash != bare.hash {
			t.Errorf("%s: decorated summary differs from the bare one", w.name)
		}
		if dec.activeS != bare.activeS {
			t.Errorf("%s: decorated run evaluated %d seconds, bare %d", w.name, dec.activeS, bare.activeS)
		}
		if tr.calls("control.decide") == 0 || tr.calls("cluster.shares") == 0 {
			t.Errorf("%s: decorators recorded nothing", w.name)
		}
	}
}

// TestDroppedSteadyKeyIsCaught proves the transparency test can fail: a
// decorator that forwards only control.Controller changes how many
// seconds the event engine evaluates.
func TestDroppedSteadyKeyIsCaught(t *testing.T) {
	w := fleetWorkload{name: "fleet-event", build: buildFleetEvent}
	cfg := runConfig{seed: 7, quick: true}
	bare, err := runFleetUnit(w, cfg, nil, newTicker(64), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	broken, err := runFleetUnit(w, cfg, nil, newTicker(64), func(f *fleet) {
		for i, ctrl := range f.c.Ctrls {
			f.c.Ctrls[i] = plainController{ctrl}
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if broken.hash != bare.hash {
		t.Error("engines are equivalent: even the broken decorator must keep the summary")
	}
	if broken.activeS == bare.activeS {
		t.Errorf("dropping SteadyKey left the evaluated seconds at %d: the transparency test is blind", bare.activeS)
	}
}
