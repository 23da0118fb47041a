// Command sturgeond runs the fleet power-budget coordinator as an HTTP
// control-plane service. Nodes POST slack telemetry to /v1/report each
// epoch and apply the cap granted back; operators read /fleet/status,
// scrape /metrics (Prometheus text exposition), tail the decision
// journal at /v1/events?since=SEQ and the causal trace at
// /v1/trace?since=SEQ, and read the fleet timeline at /v1/timeline.
//
// Usage:
//
//	sturgeond [-addr HOST:PORT] [-budget W] [-nodes N]
//	          [-min-cap W] [-max-cap W] [-alpha F] [-beta F]
//	          [-lease-ttl EPOCHS] [-state DIR] [-snapshot-every D]
//	          [-timeline PATH] [-journal N] [-pprof] [-seed N]
//	          [-json] [-version]
//
// With -lease-ttl every grant is a fenced lease: a node that misses that
// many epochs of renewals has its watts reclaimed into the pool for
// re-arbitration (the node, seeing its renewals fail, independently
// ratchets itself toward its even-split floor), and stale grants are
// fenced off by monotone per-node tokens. Without it a silent node
// keeps its last cap frozen indefinitely.
//
// Without -state the daemon is stateless across restarts: nodes keep
// running on their last-granted caps while it is down and re-adopt on
// the first report after it returns. With -state DIR every applied
// report is write-ahead logged and the arbitration state is snapshotted
// periodically (and on SIGTERM), so a restarted daemon recovers the
// exact pre-crash grant schedule — a corrupt snapshot or torn log
// degrades to the stateless behaviour, never to over-subscription
// (see internal/coordinator.Recover). SIGINT/SIGTERM drain in-flight
// requests through http.Server.Shutdown with a 5 s deadline, then cut a
// final snapshot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sturgeon/internal/cmdutil"
	"sturgeon/internal/coordinator"
	"sturgeon/internal/durable"
	"sturgeon/internal/jsonio"
	"sturgeon/internal/obs"
)

type config struct {
	addr       string
	journalCap int
	pprof      bool
	stateDir   string
	snapEvery  time.Duration
	opt        coordinator.Options
}

// banner is the startup document: the effective arbitration parameters,
// printed as text or (with -json) as a schema-less JSON object.
type banner struct {
	Addr    string  `json:"addr"`
	BudgetW float64 `json:"budget_w"`
	Nodes   int     `json:"nodes"`
	MinCapW float64 `json:"min_cap_w"`
	MaxCapW float64 `json:"max_cap_w"`
	Alpha   float64 `json:"alpha"`
	Beta    float64 `json:"beta"`
	// LeaseTTL is the grant lease TTL in epochs (0 = stale-freeze).
	LeaseTTL int `json:"lease_ttl_epochs,omitempty"`
	// StateDir is the durable state directory ("" = stateless);
	// Recovery the recovery path taken when state was loaded.
	StateDir string `json:"state_dir,omitempty"`
	Recovery string `json:"recovery,omitempty"`
}

// shutdownTimeout bounds the graceful drain after SIGINT/SIGTERM.
const shutdownTimeout = 5 * time.Second

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7015", "listen address")
	flag.Float64Var(&cfg.opt.BudgetW, "budget", 800, "total fleet power budget in watts")
	flag.IntVar(&cfg.opt.FleetSize, "nodes", 8, "expected fleet size (epochs close when all have reported)")
	flag.Float64Var(&cfg.opt.MinCapW, "min-cap", 0, "per-node cap floor in watts (0 = default)")
	flag.Float64Var(&cfg.opt.MaxCapW, "max-cap", 0, "per-node cap ceiling in watts (0 = default)")
	flag.Float64Var(&cfg.opt.Alpha, "alpha", 0, "lower slack band bound (0 = default 0.10)")
	flag.Float64Var(&cfg.opt.Beta, "beta", 0, "upper slack band bound (0 = default 0.20)")
	flag.IntVar(&cfg.opt.LeaseEpochs, "lease-ttl", 0,
		"grant lease TTL in epochs: a node silent this long has its watts reclaimed into the pool (0 = legacy stale-freeze)")
	flag.StringVar(&cfg.stateDir, "state", "", "durable state directory (empty = stateless across restarts)")
	flag.DurationVar(&cfg.snapEvery, "snapshot-every", 30*time.Second,
		"background snapshot period with -state (0 disables the ticker; SIGTERM still snapshots)")
	flag.IntVar(&cfg.journalCap, "journal", 0, "decision-journal ring capacity (0 = default)")
	timelinePath := flag.String("timeline", "",
		"write the fleet timeline (sturgeon/timeline/v1 JSON) to PATH at shutdown")
	flag.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	common := cmdutil.Register(flag.CommandLine, 42)
	// flag.CommandLine exits on a bad flag itself, so Parse cannot fail.
	if v, _ := common.Parse(flag.CommandLine, os.Args[1:]); v != "" {
		fmt.Println(v)
		os.Exit(0)
	}

	snk := obs.New(cfg.journalCap)

	// With a state dir the coordinator boots through the recovery ladder;
	// without one it starts fresh, exactly as before.
	var (
		c     *coordinator.Coordinator
		store *durable.FileStore
		info  coordinator.RecoveryInfo
		err   error
	)
	if cfg.stateDir != "" {
		store, err = durable.Open(cfg.stateDir)
		if err == nil {
			c, info, err = coordinator.Recover(store, cfg.opt, snk)
		}
		if err == nil {
			fmt.Fprintf(os.Stderr,
				"sturgeond: state %s: recovery %s (snapshot %v, %d reports replayed, epoch %d)\n",
				cfg.stateDir, info.Reason, info.SnapshotLoaded, info.ReplayedReports, info.Epoch)
		}
	} else {
		c, err = coordinator.New(cfg.opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sturgeond:", err)
		os.Exit(2)
	}
	srv := coordinator.NewServer(c)
	srv.SetObs(snk)
	if store != nil {
		srv.SetPersist(&coordinator.Persist{Store: store})
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sturgeond:", err)
		os.Exit(2)
	}
	eff := c.Options()
	b := banner{
		Addr: ln.Addr().String(), BudgetW: eff.BudgetW, Nodes: eff.FleetSize,
		MinCapW: eff.MinCapW, MaxCapW: eff.MaxCapW, Alpha: eff.Alpha, Beta: eff.Beta,
		LeaseTTL: eff.LeaseEpochs,
		StateDir: cfg.stateDir,
	}
	if cfg.stateDir != "" {
		b.Recovery = info.Reason
	}
	if common.JSON {
		_ = jsonio.Encode(os.Stdout, b)
	} else {
		lease := "stale-freeze"
		if b.LeaseTTL > 0 {
			lease = fmt.Sprintf("lease %d epochs", b.LeaseTTL)
		}
		fmt.Printf("sturgeond listening on %s: budget %.0f W over %d nodes, caps [%.0f, %.0f] W, band [%.2f, %.2f], %s\n",
			b.Addr, b.BudgetW, b.Nodes, b.MinCapW, b.MaxCapW, b.Alpha, b.Beta, lease)
	}

	// Background snapshot ticker: bounds the log replay a crash recovery
	// has to do. The SIGTERM path below cuts a final snapshot regardless.
	snapStop := make(chan struct{})
	if store != nil && cfg.snapEvery > 0 {
		go func() {
			tick := time.NewTicker(cfg.snapEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if err := srv.Snapshot(); err != nil {
						fmt.Fprintln(os.Stderr, "sturgeond: snapshot:", err)
					}
				case <-snapStop:
					return
				}
			}
		}()
	}

	httpSrv := coordinator.NewHTTPServer(cfg.addr, mux)
	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		defer close(done)
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "sturgeond: %s: draining (max %s)\n", sig, shutdownTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "sturgeond: shutdown:", err)
		}
	}()

	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "sturgeond:", err)
		os.Exit(1)
	}
	<-done
	close(snapStop)
	if *timelinePath != "" {
		// The live endpoint (/v1/timeline) serves the same document while
		// the daemon runs; the flag preserves the final state for offline
		// analysis (cmd/obsreport) after the process exits.
		if err := jsonio.WriteFile(*timelinePath, snk.Timeline.Doc()); err != nil {
			fmt.Fprintln(os.Stderr, "sturgeond: writing timeline:", err)
		}
	}
	if store != nil {
		if err := srv.Snapshot(); err != nil {
			fmt.Fprintln(os.Stderr, "sturgeond: final snapshot:", err)
		}
		if err := store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "sturgeond: state close:", err)
		}
	}
}
