package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sturgeon/internal/coordinator"
	"sturgeon/internal/durable"
	"sturgeon/internal/jsonio"
	"sturgeon/internal/obs"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// TestMain removes the daemon binary the package's tests share.
func TestMain(m *testing.M) {
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

// buildSturgeond compiles the daemon binary once per test binary and
// returns its path.
func buildSturgeond(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "sturgeond-test"); buildErr != nil {
			return
		}
		build := exec.Command("go", "build", "-o", binDir, ".")
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		buildErr = build.Run()
	})
	if buildErr != nil {
		t.Fatalf("building sturgeond: %v", buildErr)
	}
	return filepath.Join(binDir, "sturgeond")
}

// promValue extracts the value of one un-labelled metric family from a
// Prometheus text scrape.
func promValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s has unparseable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s absent from scrape:\n%s", name, text)
	return 0
}

// TestSturgeondIntegration builds the real daemon binary, starts it on a
// loopback port, and drives a 4-node fleet through the HTTP client: one
// node pinned against its cap, one stranding watts, two in band. The
// coordinator must move watts from the donor to the starved node within
// a few epochs while conserving the 400 W budget — the convergence gate
// for the service as actually shipped, flags and all — and its operator
// surface (/healthz, /metrics, /v1/events) must agree with that run.
func TestSturgeondIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binary")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	daemon, addr, _ := startSturgeond(t, ctx)
	defer func() {
		_ = daemon.Process.Kill()
		_ = daemon.Wait()
	}()
	base := "http://" + addr

	if body, _ := httpGetBody(t, base+"/healthz"); string(body) != "ok\n" {
		t.Errorf("/healthz body %q, want \"ok\\n\"", body)
	}

	const epochs = 12
	caps := driveConvergence(t, ctx, addr, epochs)
	if !(caps["n0"] > 100) {
		t.Errorf("starved node never grew past the even split: %.1f W", caps["n0"])
	}
	if !(caps["n1"] < 100) {
		t.Errorf("donor never shrank below the even split: %.1f W", caps["n1"])
	}

	st, err := newClient(addr).Status(ctx)
	if err != nil {
		t.Fatalf("/fleet/status: %v", err)
	}
	sum := st.PoolW
	for _, n := range st.Nodes {
		sum += n.CapW
	}
	if math.Abs(sum-400) > 1e-6 {
		t.Errorf("budget not conserved: caps+pool %.3f W", sum)
	}
	if len(st.Nodes) != 4 {
		t.Errorf("status lists %d nodes, want 4", len(st.Nodes))
	}
	if want := 4 * (epochs + 1); st.Stats.Reports != want {
		t.Errorf("status counts %d reports, %d were submitted", st.Stats.Reports, want)
	}

	// The decision trail must agree with the run we just drove: the
	// /metrics counters mirror the status stats, and the /v1/events
	// journal carries the cap movements behind the convergence.
	scrape, ct := httpGetBody(t, base+"/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	text := string(scrape)
	if !strings.Contains(text, "\n# TYPE coordinator_pool_watts gauge\n") {
		t.Error("/metrics lacks the coordinator_pool_watts gauge family")
	}
	if got := promValue(t, text, "coordinator_reports_total"); got != float64(st.Stats.Reports) {
		t.Errorf("coordinator_reports_total %v, status says %d", got, st.Stats.Reports)
	}
	if got := promValue(t, text, "coordinator_donations_total"); got != float64(st.Stats.Donations) {
		t.Errorf("coordinator_donations_total %v, status says %d", got, st.Stats.Donations)
	}
	if got := promValue(t, text, "coordinator_epoch"); got != float64(st.Epoch) {
		t.Errorf("coordinator_epoch %v, status says %d", got, st.Epoch)
	}

	// jsonio.Decode validates the schema and strictly increasing seqs.
	events := getEvents(t, base+"/v1/events")
	var grantEvents, maxGrantEpoch int
	for _, ev := range events.Events {
		if ev.Type == obs.EventCapGranted {
			grantEvents++
			maxGrantEpoch = max(maxGrantEpoch, ev.Epoch)
		}
	}
	if grantEvents < st.Stats.Donations+st.Stats.GrantsUp {
		t.Errorf("journal has %d cap_granted events, below the %d moves the stats report",
			grantEvents, st.Stats.Donations+st.Stats.GrantsUp)
	}
	if maxGrantEpoch < 1 {
		t.Error("no cap_granted event carries an arbitration epoch >= 1")
	}
	if st.Stats.Donations == 0 {
		t.Error("convergence loop recorded no donations; event assertions are vacuous")
	}

	// Pagination: the cursor one short of the end yields exactly the last
	// event; the end cursor yields none.
	last := events.Events[len(events.Events)-1].Seq
	tail := getEvents(t, base+"/v1/events?since="+strconv.FormatInt(last-1, 10))
	if len(tail.Events) != 1 || tail.Events[0].Seq != last {
		t.Errorf("since=%d returned %d events, want exactly seq %d", last-1, len(tail.Events), last)
	}

	// Graceful shutdown: SIGTERM must drain and exit zero well inside the
	// daemon's 5 s deadline. (The deferred Kill then hits a dead process
	// and is ignored; ctx still bounds a hung Wait.)
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := daemon.Wait(); err != nil {
		t.Errorf("daemon exited uncleanly on SIGTERM after %v: %v", time.Since(start), err)
	}
}

// startSturgeond launches the daemon on a loopback port with the shared
// 4-node/400 W arbitration flags plus extras, and decodes the -json
// banner for the bound address and the recovery path taken.
func startSturgeond(t *testing.T, ctx context.Context, extra ...string) (*exec.Cmd, string, string) {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-budget", "400", "-nodes", "4",
		"-min-cap", "60", "-max-cap", "140",
		"-json"}, extra...)
	daemon := exec.CommandContext(ctx, buildSturgeond(t), args...)
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatalf("starting sturgeond: %v", err)
	}
	// Plain json.Decoder, not jsonio.Decode: the latter reads to EOF to
	// reject trailing data, which blocks forever on a live pipe.
	var b struct {
		Addr     string  `json:"addr"`
		BudgetW  float64 `json:"budget_w"`
		Recovery string  `json:"recovery"`
	}
	if err := json.NewDecoder(stdout).Decode(&b); err != nil {
		_ = daemon.Process.Kill()
		_ = daemon.Wait()
		t.Fatalf("reading startup banner: %v", err)
	}
	if b.BudgetW != 400 {
		t.Errorf("banner budget %.0f, want 400", b.BudgetW)
	}
	return daemon, b.Addr, b.Recovery
}

// newClient returns an HTTP client for the daemon at addr that rides out
// the listener warming up.
func newClient(addr string) *coordinator.Client {
	cl := coordinator.NewClient("http://"+addr, 1)
	cl.BackoffBase = 10 * time.Millisecond
	cl.Retries = 5
	return cl
}

// reportEpoch submits one epoch of the canonical fleet for the named
// nodes — n0 starved against its cap, n1 a donor stranding watts, the
// rest in band, everyone on the 100 W even split at epoch 0 — records
// each granted cap in caps, and returns the last grant.
func reportEpoch(t *testing.T, ctx context.Context, cl *coordinator.Client, caps map[string]float64, epoch int, ids ...string) coordinator.Grant {
	t.Helper()
	var g coordinator.Grant
	for _, id := range ids {
		slack, pw, capW := 0.15, 90.0, 100.0
		if epoch > 0 {
			capW = caps[id]
			switch id {
			case "n0":
				slack, pw = 0.05, capW-0.5
			case "n1":
				slack, pw = 0.6, 70
			}
		}
		var err error
		g, err = cl.Report(ctx, coordinator.NodeReport{
			Schema: coordinator.Schema, NodeID: id, Epoch: epoch,
			Slack: slack, P95S: 0.004, PowerW: pw, CapW: capW,
			BEThroughputUPS: 1000, Healthy: true,
		})
		if err != nil {
			t.Fatalf("epoch %d node %s: %v", epoch, id, err)
		}
		caps[id] = g.CapW
	}
	return g
}

// driveConvergence pushes the canonical fleet through the daemon for
// epochs 0..epochs and returns the final caps.
func driveConvergence(t *testing.T, ctx context.Context, addr string, epochs int) map[string]float64 {
	t.Helper()
	cl := newClient(addr)
	caps := map[string]float64{}
	for epoch := 0; epoch <= epochs; epoch++ {
		reportEpoch(t, ctx, cl, caps, epoch, "n0", "n1", "n2", "n3")
	}
	return caps
}

// httpGetBody GETs url, requires a 200, and returns the body and its
// Content-Type.
func httpGetBody(t *testing.T, url string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, resp.Header.Get("Content-Type")
}

// getEvents fetches and validates a sturgeon/events/v1 document.
func getEvents(t *testing.T, url string) obs.EventsDoc {
	t.Helper()
	body, _ := httpGetBody(t, url)
	var doc obs.EventsDoc
	if err := jsonio.Decode(bytes.NewReader(body), &doc); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return doc
}

// TestSturgeondLeaseExpiry is the degraded-mode gate over real HTTP:
// with -lease-ttl 2, a node that goes dark after winning watts has its
// lease expire and its cap reclaimed to the 100 W even-split floor with
// the budget conserved, and its rejoin grant is fenced by a token past
// its pre-partition one.
func TestSturgeondLeaseExpiry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binary")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	daemon, addr, _ := startSturgeond(t, ctx, "-lease-ttl", "2")
	defer func() {
		_ = daemon.Process.Kill()
		_ = daemon.Wait()
	}()
	cl := newClient(addr)
	n0Status := func() (*coordinator.FleetStatus, coordinator.NodeStatus) {
		t.Helper()
		st, err := cl.Status(ctx)
		if err != nil {
			t.Fatalf("/fleet/status: %v", err)
		}
		for _, n := range st.Nodes {
			if n.NodeID == "n0" {
				return st, n
			}
		}
		t.Fatalf("/fleet/status has no n0 row: %+v", st.Nodes)
		return nil, coordinator.NodeStatus{}
	}

	caps := driveConvergence(t, ctx, addr, 3)
	if !(caps["n0"] > 100) {
		t.Fatalf("warm-up never grew n0 past the even split: %.1f W", caps["n0"])
	}
	// n0 goes dark while the others keep the epochs closing past its TTL.
	for epoch := 4; epoch <= 7; epoch++ {
		reportEpoch(t, ctx, cl, caps, epoch, "n1", "n2", "n3")
	}
	st, dark := n0Status()
	if !dark.LeaseExpired {
		t.Errorf("n0's lease never expired: %+v", dark)
	}
	if math.Abs(dark.CapW-100) > 1e-6 {
		t.Errorf("expired lease not reclaimed to the 100 W floor: %.3f W", dark.CapW)
	}
	total := st.PoolW
	for _, n := range st.Nodes {
		total += n.CapW
	}
	if math.Abs(total-400) > 1e-6 {
		t.Errorf("budget not conserved after reclaim: caps+pool %.3f W", total)
	}

	// Rejoin from the floor n0 ratcheted itself down to while dark.
	caps["n0"] = 100
	g := reportEpoch(t, ctx, cl, caps, 8, "n0")
	if g.LeaseEpochs != 2 || g.FloorW != 100 {
		t.Errorf("rejoin grant lease fence %d epochs / %.1f W floor, want 2 / 100", g.LeaseEpochs, g.FloorW)
	}
	if g.Token <= dark.LeaseToken {
		t.Errorf("rejoin token %d not past pre-partition token %d", g.Token, dark.LeaseToken)
	}
	if _, back := n0Status(); back.LeaseExpired {
		t.Errorf("rejoined node still marked expired: %+v", back)
	}

	scrape, _ := httpGetBody(t, "http://"+addr+"/metrics")
	if got := promValue(t, string(scrape), "coordinator_lease_expirations_total"); !(got > 0) {
		t.Errorf("coordinator_lease_expirations_total = %v, want > 0", got)
	}
}

// TestSturgeondRecovery is the end-to-end crash-recovery gate for the
// daemon as shipped: run with -state, drive arbitration, SIGKILL
// mid-flight, restart against the same state dir, and require the
// recovered /fleet/status to be byte-identical to the pre-kill capture.
// Then SIGTERM the survivor and verify the drain cut a final snapshot
// that a cold Recover loads with zero log replay.
func TestSturgeondRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binary")
	}
	stateDir := t.TempDir()

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	d1, addr1, rec1 := startSturgeond(t, ctx, "-state", stateDir, "-snapshot-every", "100ms")
	defer func() {
		_ = d1.Process.Kill()
		_ = d1.Wait()
	}()
	if rec1 != "no_snapshot" {
		t.Errorf("first boot on an empty state dir recovered via %q, want no_snapshot", rec1)
	}

	caps := driveConvergence(t, ctx, addr1, 10)
	if !(caps["n0"] > 100 && caps["n1"] < 100) {
		t.Fatalf("fleet did not converge before the kill: n0 %.1f W, n1 %.1f W", caps["n0"], caps["n1"])
	}
	preKill, _ := httpGetBody(t, "http://"+addr1+"/fleet/status")

	// SIGKILL: no drain, no final snapshot — recovery must come from the
	// write-ahead log (plus whatever the background ticker snapshotted).
	if err := d1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d1.Wait()

	d2, addr2, rec2 := startSturgeond(t, ctx, "-state", stateDir)
	defer func() {
		_ = d2.Process.Kill()
		_ = d2.Wait()
	}()
	switch rec2 {
	case "clean", "no_snapshot", "torn_log":
		// Healthy-store recovery paths; which one depends on whether the
		// ticker cut a snapshot before the kill.
	default:
		t.Errorf("restart degraded on a healthy state dir: recovery %q", rec2)
	}

	postRecovery, _ := httpGetBody(t, "http://"+addr2+"/fleet/status")
	if !bytes.Equal(postRecovery, preKill) {
		t.Errorf("recovered /fleet/status differs from pre-kill capture.\n--- pre-kill ---\n%s\n--- recovered ---\n%s",
			preKill, postRecovery)
	}

	// A further epoch must arbitrate from where the fleet left off: the
	// recovered coordinator serves fresher epochs, never rewinds, and
	// keeps logging what it applies.
	preKillCap := caps["n0"]
	if g := reportEpoch(t, ctx, newClient(addr2), caps, 11, "n0"); g.CapW < preKillCap-1e-9 {
		t.Errorf("post-recovery grant %.1f W rewound below the pre-kill cap %.1f W", g.CapW, preKillCap)
	}
	scrape, _ := httpGetBody(t, "http://"+addr2+"/metrics")
	if got := promValue(t, string(scrape), "coordinator_recoveries_total"); got != 1 {
		t.Errorf("coordinator_recoveries_total = %v, want 1", got)
	}
	if got := promValue(t, string(scrape), "coordinator_report_records_total"); !(got > 0) {
		t.Errorf("coordinator_report_records_total = %v, want > 0", got)
	}

	// SIGTERM drains and cuts a final snapshot: a cold Recover on the
	// state dir must load it cleanly with nothing left to replay.
	if err := d2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d2.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly on SIGTERM: %v", err)
	}
	store, err := durable.Open(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	_, info, err := coordinator.Recover(store, coordinator.Options{
		BudgetW: 400, MinCapW: 60, MaxCapW: 140, FleetSize: 4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.SnapshotLoaded || info.Reason != "clean" {
		t.Errorf("SIGTERM did not leave a loadable snapshot: %+v", info)
	}
	if info.ReplayedReports != 0 {
		t.Errorf("final snapshot left %d reports to replay, want 0", info.ReplayedReports)
	}
}
