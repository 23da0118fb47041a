package coordinator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sturgeon/internal/durable"
	"sturgeon/internal/faults"
)

func newHTTPFixture(t *testing.T, opt Options) (*httptest.Server, *Client) {
	t.Helper()
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(c).Handler())
	t.Cleanup(srv.Close)
	cl := NewClient(srv.URL, 1)
	cl.BackoffBase = time.Millisecond
	return srv, cl
}

func TestHTTPReportGrantRoundTrip(t *testing.T) {
	_, cl := newHTTPFixture(t, Options{BudgetW: 200, MinCapW: 50, MaxCapW: 150, FleetSize: 2})
	ctx := context.Background()
	g, err := cl.Report(ctx, report("a", 0, 0.15, 95, 100))
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if g.Schema != Schema || g.NodeID != "a" || g.CapW != 100 {
		t.Fatalf("unexpected grant: %+v", g)
	}
	if _, err := cl.Report(ctx, report("b", 0, 0.15, 95, 100)); err != nil {
		t.Fatal(err)
	}
	g2, err := cl.Grant(ctx, "a")
	if err != nil {
		t.Fatalf("Grant: %v", err)
	}
	if g2.CapW != g.CapW {
		t.Fatalf("re-sync grant %.1f differs from reported grant %.1f", g2.CapW, g.CapW)
	}
}

func TestHTTPStatusDocument(t *testing.T) {
	_, cl := newHTTPFixture(t, Options{BudgetW: 200, FleetSize: 2})
	ctx := context.Background()
	for _, id := range []string{"a", "b"} {
		if _, err := cl.Report(ctx, report(id, 0, 0.15, 90, 100)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.BudgetW != 200 || len(st.Nodes) != 2 || st.Stats.Reports != 2 {
		t.Fatalf("unexpected status: %+v", st)
	}
}

func TestHTTPRejectsMalformedReport(t *testing.T) {
	srv, cl := newHTTPFixture(t, Options{BudgetW: 200})
	// Client-side: validation fires before anything hits the wire.
	r := report("a", 0, 0.15, 90, 100)
	r.Slack = math.NaN()
	_, err := cl.Report(context.Background(), r)
	if err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN slack not rejected at the client: %v", err)
	}
	// Server-side: raw garbage that bypasses the client gets a 400.
	resp, err := http.Post(srv.URL+"/v1/report", "application/json",
		strings.NewReader(`{"schema":"bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed report got %s, want 400", resp.Status)
	}
}

func TestHTTPClientRetriesTransientFailures(t *testing.T) {
	c, err := New(Options{BudgetW: 200, FleetSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	inner := NewServer(c).Handler()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "backend hiccup", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, req)
	}))
	defer srv.Close()
	cl := NewClient(srv.URL, 7)
	cl.BackoffBase = time.Millisecond
	g, err := cl.Report(context.Background(), report("a", 0, 0.15, 90, 100))
	if err != nil {
		t.Fatalf("retries exhausted: %v (calls %d)", err, calls.Load())
	}
	if g.CapW != 100 || calls.Load() != 3 {
		t.Fatalf("grant %+v after %d calls, want success on the 3rd", g, calls.Load())
	}
}

func TestHTTPClientGivesUpOnPermanentErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "no such fleet", http.StatusNotFound)
	}))
	defer srv.Close()
	cl := NewClient(srv.URL, 7)
	cl.BackoffBase = time.Millisecond
	if _, err := cl.Grant(context.Background(), "ghost"); err == nil {
		t.Fatal("404 reported as success")
	}
	if calls.Load() != 1 {
		t.Fatalf("client retried a permanent 4xx %d times", calls.Load())
	}
}

func TestHTTPClientHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "always down", http.StatusBadGateway)
	}))
	defer srv.Close()
	cl := NewClient(srv.URL, 7)
	cl.Retries = 50
	cl.BackoffBase = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.Status(ctx)
	if err == nil {
		t.Fatal("expected an error from a downed coordinator")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("client ignored context deadline, took %v", time.Since(start))
	}
}

// TestHTTPOversizedReportRejected413: a body past maxReportBytes must
// be refused with 413, not mis-reported as malformed JSON — and must
// not disturb arbitration state.
func TestHTTPOversizedReportRejected413(t *testing.T) {
	srv, cl := newHTTPFixture(t, Options{BudgetW: 200, FleetSize: 1})
	ctx := context.Background()
	if _, err := cl.Report(ctx, report("a", 0, 0.15, 90, 100)); err != nil {
		t.Fatal(err)
	}
	huge := strings.NewReader(`{"schema":"` + strings.Repeat("x", maxReportBytes) + `"}`)
	resp, err := http.Post(srv.URL+"/v1/report", "application/json", huge)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized report got %s, want 413", resp.Status)
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats.Reports != 1 {
		t.Fatalf("oversized body reached Submit: %d reports", st.Stats.Reports)
	}
	// A body at the limit must still be readable: the limit protects the
	// decoder, it does not shrink the accepted document space.
	if _, err := cl.Report(ctx, report("a", 1, 0.15, 90, 100)); err != nil {
		t.Fatalf("normal report after the oversized one: %v", err)
	}
}

// TestNewHTTPServerTimeouts pins the protection timeouts every listener
// binding must carry (satellite of the crash-recovery PR: a coordinator
// that survives SIGKILL should not be hung by a slowloris peer).
func TestNewHTTPServerTimeouts(t *testing.T) {
	hs := NewHTTPServer("127.0.0.1:0", http.NewServeMux())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 ||
		hs.WriteTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("NewHTTPServer leaves a protection timeout unset: %+v", hs)
	}
	if hs.WriteTimeout < 35*time.Second {
		t.Fatalf("WriteTimeout %v would cut off the default 30 s pprof profile", hs.WriteTimeout)
	}
}

// TestHTTPClientAbortsCancelledContext: a context cancelled before (or
// during) backoff must stop the retry loop without firing another
// request at the coordinator.
func TestHTTPClientAbortsCancelledContext(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "always down", http.StatusBadGateway)
	}))
	defer srv.Close()
	cl := NewClient(srv.URL, 7)
	cl.Retries = 50
	cl.BackoffBase = time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first attempt
	if _, err := cl.Status(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context returned %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("client fired %d requests on a dead context, want 0", calls.Load())
	}

	// Cancelled mid-backoff: the in-flight schedule must abort without
	// one more attempt sneaking out after the cancellation.
	cl.BackoffBase = 50 * time.Millisecond
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond) // inside the first backoff sleep
		cancel2()
	}()
	if _, err := cl.Status(ctx2); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-backoff cancel returned %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("mid-backoff cancel let %d requests out, want exactly 1", got)
	}
}

// TestHTTPServerPersistsReports wires the write-ahead persistence into
// the HTTP server and checks a recovered coordinator answers
// /fleet/status with the exact pre-crash document.
func TestHTTPServerPersistsReports(t *testing.T) {
	opt := Options{BudgetW: 200, MinCapW: 50, MaxCapW: 150, FleetSize: 2}
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	store := durable.NewMemStore()
	s := NewServer(c)
	s.SetPersist(&Persist{Store: store, SnapshotEvery: 3})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cl := NewClient(srv.URL, 1)
	ctx := context.Background()
	caps := map[string]float64{"a": 100, "b": 100}
	for e := 0; e < 4; e++ {
		for _, id := range []string{"a", "b"} {
			slack, pw := 0.05, caps[id]-0.5
			if id == "b" {
				slack, pw = 0.6, 60
			}
			g, err := cl.Report(ctx, report(id, e, slack, pw, caps[id]))
			if err != nil {
				t.Fatal(err)
			}
			caps[id] = g.CapW
		}
	}
	want, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}

	rec, info, err := Recover(store, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Degraded {
		t.Fatalf("clean server store recovered degraded (%s)", info.Reason)
	}
	if !reflect.DeepEqual(want, rec.Status()) {
		t.Fatal("recovered coordinator renders a different /fleet/status document")
	}
	// An explicit snapshot (the daemon's SIGTERM path) must leave the
	// store recoverable to the same state.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	rec2, _, err := Recover(store, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, rec2.Status()) {
		t.Fatal("post-snapshot recovery diverges")
	}
}

// TestHTTPMultiNodeConvergence drives a 4-node fleet over the real
// HTTP transport: one node pinned against its cap, one with stranded
// headroom, two in band. Watts must flow from the donor to the starved
// node within a few epochs, conserving the budget throughout.
func TestHTTPMultiNodeConvergence(t *testing.T) {
	_, cl := newHTTPFixture(t, Options{BudgetW: 400, MinCapW: 60, MaxCapW: 140, FleetSize: 4})
	ctx := context.Background()
	ids := []string{"n0", "n1", "n2", "n3"}
	caps := map[string]float64{}
	for _, id := range ids {
		g, err := cl.Report(ctx, report(id, 0, 0.15, 95, 100))
		if err != nil {
			t.Fatal(err)
		}
		caps[id] = g.CapW
	}
	for e := 1; e <= 10; e++ {
		for _, id := range ids {
			var slack, pw float64
			switch id {
			case "n0": // starved: pinned against its cap
				slack, pw = 0.05, caps[id]-0.5
			case "n1": // donor: saturated well below its cap
				slack, pw = 0.6, 70
			default: // in band
				slack, pw = 0.15, 90
			}
			g, err := cl.Report(ctx, report(id, e, slack, pw, caps[id]))
			if err != nil {
				t.Fatalf("epoch %d node %s: %v", e, id, err)
			}
			caps[id] = g.CapW
		}
	}
	if !(caps["n0"] > 100) {
		t.Fatalf("starved node never grew: %.1f W", caps["n0"])
	}
	if !(caps["n1"] < 100) {
		t.Fatalf("donor never shrank: %.1f W", caps["n1"])
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sum := st.PoolW
	for _, n := range st.Nodes {
		sum += n.CapW
	}
	if math.Abs(sum-400) > 1e-6 {
		t.Fatalf("budget not conserved over HTTP: caps+pool %.3f W", sum)
	}
}

// TestHTTPReportDedupeByNodeEpoch is the regression fence for the
// server-side (node, epoch) dedupe on /v1/report: a client that
// retransmits after a lost ack must get the identical grant back with
// nothing applied twice — no double-counted report, no advanced lease
// token.
func TestHTTPReportDedupeByNodeEpoch(t *testing.T) {
	_, cl := newHTTPFixture(t, Options{
		BudgetW: 300, MinCapW: 50, MaxCapW: 150, FleetSize: 3, LeaseEpochs: 2,
	})
	ctx := context.Background()
	first, err := cl.Report(ctx, report("a", 0, 0.15, 95, 100))
	if err != nil {
		t.Fatal(err)
	}
	for retry := 0; retry < 3; retry++ {
		again, err := cl.Report(ctx, report("a", 0, 0.15, 95, 100))
		if err != nil {
			t.Fatalf("retry %d: %v", retry, err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("retry %d changed the grant: %+v vs %+v", retry, again, first)
		}
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats.Reports != 1 {
		t.Fatalf("replays were applied: %d reports counted, want 1", st.Stats.Reports)
	}
	// A genuinely fresh epoch still applies and advances the fence.
	g, err := cl.Report(ctx, report("a", 1, 0.15, 95, 100))
	if err != nil {
		t.Fatal(err)
	}
	if g.Token != first.Token+1 {
		t.Fatalf("fresh epoch token %d, want %d", g.Token, first.Token+1)
	}
}

// TestHTTPPartitionSoak drives the identical seeded net-chaos schedule
// through the networked HTTP transport and the in-process Local
// transport and requires identical message fates, identical grants and
// identical final fleet state. This is the purity contract NetChaos
// advertises — the plan is a function of (spec, seed, epochs, nodes),
// never of transport timing — and it is what lets the CI partition-soak
// job exercise the real daemon path with the simulator's exact chaos.
func TestHTTPPartitionSoak(t *testing.T) {
	const (
		nodes  = 3
		epochs = 40
		seed   = 20260808
	)
	opt := Options{BudgetW: 300, MinCapW: 50, MaxCapW: 150, FleetSize: nodes, LeaseEpochs: 2}
	spec := faults.NetSpec{
		PartitionRate:       0.05,
		MeanPartitionEpochs: 2,
		DropRate:            0.08,
		DelayRate:           0.08,
		DupRate:             0.08,
		ReorderRate:         0.5,
	}

	// One soak pass: the scripted fleet rotates through donor, starved
	// and in-band roles so arbitration genuinely moves watts while the
	// chaos schedule severs, delays and duplicates the traffic.
	run := func(t *testing.T, inner Transport) ([]string, *FleetStatus, NetStats) {
		t.Helper()
		nc := &NetChaos{Inner: inner, Plan: faults.NewNet(spec, seed, epochs, nodes)}
		ctx := context.Background()
		var fates []string
		for e := 0; e < epochs; e++ {
			for i := 0; i < nodes; i++ {
				slack := 0.04 + 0.13*float64((e+2*i)%4)
				pw := 70 + 8*float64(i)
				g, err := nc.Report(ctx, report(fmt.Sprintf("node-%d", i), e, slack, pw, 100))
				if err != nil {
					fates = append(fates, fmt.Sprintf("e%d n%d err", e, i))
					continue
				}
				fates = append(fates, fmt.Sprintf("e%d n%d cap %.6f tok %d ttl %d floor %.6f",
					e, i, g.CapW, g.Token, g.LeaseEpochs, g.FloorW))
			}
		}
		st, err := nc.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return fates, st, nc.Stats()
	}

	local := newTest(t, opt)
	localFates, localStatus, localNet := run(t, &Local{C: local})

	_, cl := newHTTPFixture(t, opt)
	httpFates, httpStatus, httpNet := run(t, cl)

	if len(localFates) != len(httpFates) {
		t.Fatalf("fate counts differ: local %d, http %d", len(localFates), len(httpFates))
	}
	for i := range localFates {
		if localFates[i] != httpFates[i] {
			t.Fatalf("fate %d diverged:\n  local: %s\n  http:  %s", i, localFates[i], httpFates[i])
		}
	}
	if localNet != httpNet {
		t.Fatalf("chaos tallies diverged:\n  local: %+v\n  http:  %+v", localNet, httpNet)
	}
	if localNet.PartitionedOut == 0 || localNet.Delayed == 0 || localNet.Duplicated == 0 {
		t.Fatalf("soak was vacuous: %+v", localNet)
	}
	if !reflect.DeepEqual(localStatus, httpStatus) {
		t.Fatalf("final fleet state diverged:\n  local: %+v\n  http:  %+v", localStatus, httpStatus)
	}
	if localStatus.Stats.LeaseExpirations == 0 {
		t.Fatal("soak never expired a lease — the schedule is too gentle to prove anything")
	}
	if err := httpStatus.Validate(); err != nil {
		t.Fatalf("final status over HTTP: %v", err)
	}
}
