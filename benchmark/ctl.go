package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sturgeon/internal/cluster"
	"sturgeon/internal/coordinator"
	"sturgeon/internal/jsonio"
	"sturgeon/internal/obs"
)

// The control-plane workloads drive a real sturgeond over loopback
// HTTP: a closed loop of two clients, one keep-alive connection each,
// zero think time — the shape of a fleet whose nodes each wait for
// their grant before they report again. ctl-durable sends reports only
// to a daemon with a state directory, so every request pays decode →
// dedupe → WAL append + fsync → (every nodes-th) arbitrate → encode,
// and it ends with SIGKILL and a restart that must replay the log.
// ctl-mixed runs the daemon stateless and mixes the operator reads in,
// so it bypasses internal/durable entirely: a WAL change must not move
// it, an encode or server-mutex change moves both.

const (
	ctlClients  = 2
	ctlEvenCapW = 98.0 // the coordinated-fleet scenario's caps
	ctlMinCapW  = 80.0
	ctlMaxCapW  = 112.0
)

func ctlNodes(quick bool) int {
	if quick {
		return 8
	}
	return 64
}

func ctlOptions(nodes int) coordinator.Options {
	return coordinator.Options{BudgetW: ctlEvenCapW * float64(nodes), MinCapW: ctlMinCapW,
		MaxCapW: ctlMaxCapW, FleetSize: nodes, LeaseEpochs: 2}
}

// ensureDaemon builds cmd/sturgeond from source into the build
// directory. The go command's own cache makes a repeat a no-op.
func ensureDaemon(cfg runConfig) (string, error) {
	bin := filepath.Join(cfg.buildDir, "bin", "sturgeond")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(cfg.ctx, "go", "build", "-o", bin, "./cmd/sturgeond")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building sturgeond: %w\n%s", err, out)
	}
	return bin, nil
}

// lockedBuffer collects the daemon's standard error while exec's copy
// goroutine is still writing to it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// daemon is one running sturgeond.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr lockedBuffer
	readyS float64 // spawn → first 200 from /healthz
}

// startDaemon spawns sturgeond on a kernel-chosen port, reads the
// address from its -json banner and waits for /healthz.
func startDaemon(ctx context.Context, bin string, nodes int, stateDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-json",
		"-nodes", strconv.Itoa(nodes),
		"-budget", strconv.FormatFloat(ctlEvenCapW*float64(nodes), 'g', -1, 64),
		"-min-cap", strconv.FormatFloat(ctlMinCapW, 'g', -1, 64),
		"-max-cap", strconv.FormatFloat(ctlMaxCapW, 'g', -1, 64),
		"-lease-ttl", "2", "-snapshot-every", "0"}
	if stateDir != "" {
		args = append(args, "-state", stateDir)
	}
	d := &daemon{cmd: exec.CommandContext(ctx, bin, args...)}
	d.cmd.Stderr = &d.stderr
	// If the driver dies without running its deferred stops, the kernel
	// takes the daemon down with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	var banner struct {
		Addr string `json:"addr"`
	}
	if err := json.NewDecoder(stdout).Decode(&banner); err != nil || banner.Addr == "" {
		d.stop()
		return nil, fmt.Errorf("sturgeond printed no banner (%v): %s", err, d.stderr.String())
	}
	// The banner is all the daemon ever prints there; drain the pipe so
	// exec's Wait can close it.
	go func() { _, _ = io.Copy(io.Discard, stdout) }()
	d.base = "http://" + banner.Addr
	for deadline := t0.Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("sturgeond never became healthy: %s", d.stderr.String())
		}
	}
	d.readyS = time.Since(t0).Seconds()
	return d, nil
}

// stop kills the daemon (SIGKILL: no drain, no final snapshot) and
// waits until it has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// opKind is one request type of the traffic mix.
type opKind uint8

const (
	opReport opKind = iota
	opStatus
	opGrant
	opMetrics
	opEvents
	numOpKinds
)

var opNames = [numOpKinds]string{"report", "status", "grant", "metrics", "events"}

// splitmix is the generator's stateless randomness: request i of a
// seed is the same request whichever client sends it and whenever.
func splitmix(seed int64, i uint64) uint64 {
	z := uint64(seed) + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// reportsOnly and mixedOps are the two traffic mixes.
func reportsOnly(int64, uint64) opKind { return opReport }

func mixedOps(seed int64, i uint64) opKind {
	switch p := splitmix(seed^0x6d6978, i) % 1000; {
	case p < 800:
		return opReport
	case p < 900:
		return opStatus
	case p < 950:
		return opGrant
	case p < 975:
		return opMetrics
	default:
		return opEvents
	}
}

// makeReport is report r of a seed, with seeded telemetry: the report
// of node r mod nodes in epoch 1 + r div nodes. Epoch 1 is the warm-up
// round.
func makeReport(seed int64, nodes int, r uint64) coordinator.NodeReport {
	h := splitmix(seed, r)
	slack := -0.1 + 0.6*unit(h)
	const targetS = 1e-3
	return coordinator.NodeReport{
		Schema:          coordinator.Schema,
		NodeID:          cluster.NodeID(int(r % uint64(nodes))),
		Epoch:           1 + int(r/uint64(nodes)),
		Slack:           slack,
		P95S:            targetS * (1 - slack),
		PowerW:          ctlMinCapW + (ctlMaxCapW-ctlMinCapW)*unit(splitmix(seed, h)),
		CapW:            ctlEvenCapW,
		BEThroughputUPS: 100 + 200*unit(splitmix(seed+1, h)),
		Healthy:         h%50 != 0,
	}
}

// opSample is one completed request as its client saw it.
type opSample struct {
	kind   opKind
	seq    uint64 // op number; for reports the argument of makeReport
	endNS  int64  // since the window opened
	micros float64
	ok     bool
}

var reportsTotalRE = regexp.MustCompile(`(?m)^coordinator_reports_total (\d+)$`)

// generator is the closed-loop load generator. The request kinds are
// dealt from one shared sequence; the nodes are split between the
// clients, each of which reports its own nodes epoch after epoch. One
// node's reports therefore never overtake each other — the daemon
// would answer the overtaken one from its dedupe path, unapplied and
// uncounted — while the clients may drift an epoch apart, as the nodes
// of a real fleet do.
type generator struct {
	base    string
	seed    int64
	nodes   int // a multiple of ctlClients
	mix     func(seed int64, i uint64) opKind
	nextOp  atomic.Uint64
	reports atomic.Uint64 // sent so far, the warm-up round included
}

// reportID is client c's k-th report after the warm-up round.
func (g *generator) reportID(c int, k uint64) uint64 {
	per := uint64(g.nodes / ctlClients)
	return (1+k/per)*uint64(g.nodes) + uint64(c) + ctlClients*(k%per)
}

// newClient is one node-side client: no retries (a failed request is a
// failed operation, not a slower one) and exactly one connection.
func newClient(base string) *coordinator.Client {
	return &coordinator.Client{BaseURL: base, Retries: 0,
		HTTP: &http.Client{Timeout: 5 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

// do sends one request and checks its response: 200 and a document
// that passes its jsonio validator (the client library does both), or
// for /metrics a well-formed reports counter.
func (g *generator) do(ctx context.Context, cl *coordinator.Client, kind opKind, seq uint64, cursor *int64) error {
	switch kind {
	case opReport:
		r := makeReport(g.seed, g.nodes, seq)
		gr, err := cl.Report(ctx, r)
		if err == nil && gr.NodeID != r.NodeID {
			err = fmt.Errorf("grant for %s answers report of %s", gr.NodeID, r.NodeID)
		}
		return err
	case opStatus:
		_, err := cl.Status(ctx)
		return err
	case opGrant:
		_, err := cl.Grant(ctx, cluster.NodeID(int(splitmix(g.seed, seq)%uint64(g.nodes))))
		return err
	}
	path := "/metrics"
	if kind == opEvents {
		path = "/v1/events?since=" + strconv.FormatInt(*cursor, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := cl.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	if kind == opEvents {
		var doc obs.EventsDoc
		if err := jsonio.Decode(resp.Body, &doc); err != nil {
			return err
		}
		if n := len(doc.Events); n > 0 {
			*cursor = doc.Events[n-1].Seq
		}
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	if err == nil && !reportsTotalRE.Match(body) {
		err = fmt.Errorf("/metrics carries no coordinator_reports_total")
	}
	return err
}

// run drives the loop for the window and returns every client's
// samples. Clients stop at the first request that fails at transport
// level with the context done; any other failure is a failed operation.
func (g *generator) run(ctx context.Context, window time.Duration) []opSample {
	perClient := make([][]opSample, ctlClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < ctlClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(g.base)
			defer cl.HTTP.CloseIdleConnections()
			var cursor int64
			var sent uint64
			samples := make([]opSample, 0, 1<<16)
			for time.Since(start) < window && ctx.Err() == nil {
				i := g.nextOp.Add(1) - 1
				s := opSample{kind: g.mix(g.seed, i), seq: i}
				if s.kind == opReport {
					s.seq = g.reportID(c, sent)
					sent++
					g.reports.Add(1)
				}
				t0 := time.Now()
				err := g.do(ctx, cl, s.kind, s.seq, &cursor)
				end := time.Now()
				s.micros, s.endNS, s.ok = float64(end.Sub(t0))/1e3, int64(end.Sub(start)), err == nil
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s %d failed: %v\n", opNames[s.kind], s.seq, err)
				}
				samples = append(samples, s)
			}
			perClient[c] = samples
		}()
	}
	wg.Wait()
	var all []opSample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

func runCtlDurable(cfg runConfig, rep *report) error { return runCtl(cfg, rep, true, reportsOnly) }

func runCtlMixed(cfg runConfig, rep *report) error { return runCtl(cfg, rep, false, mixedOps) }

func runCtl(cfg runConfig, rep *report, durable bool, mix func(int64, uint64) opKind) error {
	bin, err := ensureDaemon(cfg)
	if err != nil {
		return err
	}
	nodes := ctlNodes(cfg.quick)
	ctx := cfg.ctx

	// Set-up is starting the daemon until it answers /healthz, on a fresh
	// state directory when it keeps one. Several starts give a steady
	// median; the last daemon is the one measured.
	var d *daemon
	var stateDir string
	cleanup := func() {
		if d != nil {
			d.stop()
			d = nil
		}
		if stateDir != "" {
			_ = os.RemoveAll(stateDir)
			stateDir = ""
		}
	}
	defer cleanup()
	var setups []float64
	for i := 0; i < 15; i++ {
		cleanup()
		if durable {
			if stateDir, err = os.MkdirTemp(cfg.buildDir, "state-"); err != nil {
				return err
			}
		}
		if d, err = startDaemon(ctx, bin, nodes, stateDir); err != nil {
			return err
		}
		setups = append(setups, d.readyS)
	}

	// Warm-up slice: epoch 1, one report per node. It opens the
	// connections' code paths and adopts every node, so that a grant
	// read never meets an unknown node.
	g := &generator{base: d.base, seed: cfg.seed, nodes: nodes, mix: mix}
	warm := newClient(d.base)
	for r := 0; r < nodes; r++ {
		g.reports.Add(1)
		if err := g.do(ctx, warm, opReport, uint64(r), nil); err != nil {
			return fmt.Errorf("warm-up report: %w", err)
		}
		rep.ops(1, 0)
	}
	warm.HTTP.CloseIdleConnections()

	cpuSelf0 := cpuSelf()
	cpuDaemon0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	samples := g.run(ctx, window)
	cpuDaemon1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	cpu := (cpuSelf() - cpuSelf0 + cpuDaemon1 - cpuDaemon0).Seconds()
	if err := rep.setPeakRSS(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
		return err
	}

	// Tallies: a failed request counts against the attempts and, having
	// no meaningful latency, is left out of the percentiles.
	var failed int
	perKind := make([][]float64, numOpKinds)
	var reads []float64
	// Throughput and tail are medians over the window's slices — one
	// second each, or the whole window when it is shorter than two — so
	// that one stalled fsync dents a slice, not the figure.
	sliceS := 1.0
	if cfg.seconds < 2 {
		sliceS = cfg.seconds
	}
	slices := make([][]float64, int(cfg.seconds/sliceS))
	for _, s := range samples {
		if !s.ok {
			failed++
			continue
		}
		perKind[s.kind] = append(perKind[s.kind], s.micros)
		if s.kind != opReport {
			reads = append(reads, s.micros)
		}
		if i := int(float64(s.endNS) / 1e9 / sliceS); i < len(slices) {
			slices[i] = append(slices[i], s.micros)
		}
	}
	rep.ops(len(samples), failed)
	var rates, p95s []float64
	for _, sl := range slices {
		sort.Float64s(sl)
		rates = append(rates, float64(len(sl))/sliceS)
		p95s = append(p95s, quantile(sl, 0.95))
	}
	if median(rates) == 0 {
		return fmt.Errorf("no request completed")
	}
	rep.set("setup_s", median(setups))
	rep.set("ops_per_s", median(rates))
	rep.set("op_p95_us", median(p95s))
	rep.set("cpu_us_per_op", cpu/float64(len(samples))*1e6)

	// Final state: the fleet status validates (Σcaps + pool ≡ budget is
	// part of its validator) and the daemon counted every report sent.
	reports := g.reports.Load()
	status, err := fetch(ctx, d.base+"/fleet/status")
	rep.check(err == nil, "final /fleet/status: %v", err)
	var st coordinator.FleetStatus
	err = jsonio.Unmarshal(status, &st)
	rep.check(err == nil, "final /fleet/status does not validate: %v", err)
	metrics, err := fetch(ctx, d.base+"/metrics")
	rep.check(err == nil, "final /metrics: %v", err)
	counted := "no"
	if m := reportsTotalRE.FindSubmatch(metrics); m != nil {
		counted = string(m[1])
	}
	rep.check(counted == strconv.FormatUint(reports, 10), "daemon counted %s reports, %d were sent", counted, reports)

	var recoverS float64
	if durable {
		// Crash recovery: SIGKILL, restart on the same state directory.
		// The restarted daemon must replay every report from the log and
		// serve the fleet status it served before, byte for byte.
		d.stop()
		if d, err = startDaemon(ctx, bin, nodes, stateDir); err != nil {
			return fmt.Errorf("restart after SIGKILL: %w", err)
		}
		recoverS = d.readyS
		want := fmt.Sprintf("%d reports replayed", reports)
		rep.check(bytes.Contains([]byte(d.stderr.String()), []byte(want)),
			"restarted daemon did not report %q: %s", want, d.stderr.String())
		again, err := fetch(ctx, d.base+"/fleet/status")
		rep.check(err == nil && bytes.Equal(again, status),
			"fleet status after recovery differs from the one before the kill (%v)", err)
	}
	if !cfg.traced {
		return nil
	}

	for k := range perKind {
		sort.Float64s(perKind[k])
	}
	sort.Float64s(reads)
	rep.set("ctl.report_p50_us", quantile(perKind[opReport], 0.50))
	rep.set("ctl.report_p99_us", quantile(perKind[opReport], 0.99))
	rep.set("ctl.report_p999_us", quantile(perKind[opReport], 0.999))
	rep.set("ctl.read_p99_us", quantile(reads, 0.99))
	rep.set("ctl.recover_s", recoverS)
	cleanup() // the replays below need the daemon no more

	tr := newTracer()
	if err := replayCtl(cfg, rep, tr, nodes, durable, samples, quantile(perKind[opReport], 0.50)); err != nil {
		return err
	}
	return tr.finish(cfg, rep)
}

// fetch GETs a URL and returns the body of a 200 response.
func fetch(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: %s", url, resp.Status)
	}
	return body, err
}
