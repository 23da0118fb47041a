package faults

import (
	"math/rand"
	"sort"
)

// Network chaos between nodes and the coordinator. The node-level plans
// (faults.go) corrupt one node's telemetry; a CoordKillPlan (coord.go)
// takes the arbitration service down wholesale. What neither can model
// is the network in between: a partition that silently eats a node's
// reports, a grant response that never comes back, a delayed report
// that shows up one epoch late — possibly reordered or duplicated. The
// NetPlan here materializes exactly that, with the package's usual
// determinism contract: a plan is a pure function of (spec, seed,
// epochs, nodes), so the Local and HTTP transports replay the identical
// schedule and both cluster engines observe the same message fates.

// NetDir names one direction of the node↔coordinator link.
type NetDir int

const (
	// DirReport is node → coordinator: a severed report never reaches
	// the coordinator, and the node sees its renewal fail.
	DirReport NetDir = iota
	// DirGrant is coordinator → node: the report IS delivered (the
	// coordinator renews the lease) but the grant response is lost, so
	// the node still sees its renewal fail. This is the asymmetric case
	// the lease invariants exist for.
	DirGrant
)

// String names the direction for logs and test failures.
func (d NetDir) String() string {
	if d == DirGrant {
		return "grant"
	}
	return "report"
}

// NetWindow is one directed partition: traffic from/to node Node in
// direction Dir is severed over the half-open epoch range [Start, End).
type NetWindow struct {
	Node       int
	Dir        NetDir
	Start, End int
}

// NetSpec holds the seeded network-chaos knobs. The zero value plans no
// chaos. Rates are probabilities; the schedule they imply is
// materialized up front by NewNet.
type NetSpec struct {
	// PartitionRate is the per-(node, epoch) probability that a
	// partition window opens while the link is healthy. Each opened
	// window severs the report direction, the grant direction, or both
	// (chosen seeded, uniformly).
	PartitionRate float64
	// MeanPartitionEpochs is the mean window length in epochs
	// (geometric, default 2).
	MeanPartitionEpochs float64
	// DropRate is the per-message probability a report is silently
	// dropped. A drawn drop is stored as a one-epoch report-direction
	// window, so a lost report has one representation.
	DropRate float64
	// DelayRate is the per-message probability a report is held one
	// epoch and delivered just before the next exchange's fresh
	// reports. Its grant response arrives too late to matter and is
	// discarded, so the sender still observes a failed renewal.
	DelayRate float64
	// DupRate is the per-message probability a delivered report is
	// delivered twice back to back (the retry-after-lost-ack shape the
	// server-side dedupe exists for).
	DupRate float64
	// ReorderRate is the per-epoch probability that the epoch's flush
	// of delayed reports runs in reversed order.
	ReorderRate float64
}

// DefaultNetSpec is the battery's standard chaos mix: sparse partitions
// a couple of epochs long over a steady drizzle of per-message drop,
// delay and duplication.
func DefaultNetSpec() NetSpec {
	return NetSpec{
		PartitionRate:       0.02,
		MeanPartitionEpochs: 2,
		DropRate:            0.05,
		DelayRate:           0.05,
		DupRate:             0.05,
		ReorderRate:         0.25,
	}
}

// NetPlan is a materialized network-chaos schedule over epochs
// 1..Epochs and nodes 0..Nodes-1. The zero/nil plan is empty and all
// query methods are nil-safe.
type NetPlan struct {
	Epochs int
	Nodes  int

	outWindows []NetWindow // DirReport partitions and drops, canonicalized
	inWindows  []NetWindow // DirGrant partitions, canonicalized
	delays     map[netKey]struct{}
	dups       map[netKey]struct{}
	reorder    map[int]struct{}
}

type netKey struct{ epoch, node int }

// NewNet materializes the schedule implied by spec — a pure function of
// (spec, seed, epochs, nodes).
func NewNet(spec NetSpec, seed int64, epochs, nodes int) *NetPlan {
	clampRate := func(r float64) float64 {
		if !(r > 0) {
			return 0
		}
		if r > 1 {
			return 1
		}
		return r
	}
	prate := clampRate(spec.PartitionRate)
	dur := spec.MeanPartitionEpochs
	if !(dur >= 1) {
		dur = 2
	}
	drop := clampRate(spec.DropRate)
	delay := clampRate(spec.DelayRate)
	dup := clampRate(spec.DupRate)
	reorder := clampRate(spec.ReorderRate)

	var windows []NetWindow
	p := &NetPlan{
		delays:  map[netKey]struct{}{},
		dups:    map[netKey]struct{}{},
		reorder: map[int]struct{}{},
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + 991))
	// One deterministic pass per (node, epoch) in fixed order keeps the
	// plan independent of any caller behavior.
	for n := 0; n < nodes; n++ {
		for e := 1; e <= epochs; {
			if prate <= 0 || rng.Float64() >= prate {
				e++
				continue
			}
			end := e + 1
			for end <= epochs && dur > 1 && rng.Float64() > 1/dur {
				end++
			}
			switch rng.Intn(3) {
			case 0:
				windows = append(windows, NetWindow{Node: n, Dir: DirReport, Start: e, End: end})
			case 1:
				windows = append(windows, NetWindow{Node: n, Dir: DirGrant, Start: e, End: end})
			default:
				windows = append(windows,
					NetWindow{Node: n, Dir: DirReport, Start: e, End: end},
					NetWindow{Node: n, Dir: DirGrant, Start: e, End: end})
			}
			e = end + 1
		}
	}
	for n := 0; n < nodes; n++ {
		for e := 1; e <= epochs; e++ {
			k := netKey{epoch: e, node: n}
			if drop > 0 && rng.Float64() < drop {
				windows = append(windows, NetWindow{Node: n, Dir: DirReport, Start: e, End: e + 1})
			}
			if delay > 0 && rng.Float64() < delay {
				p.delays[k] = struct{}{}
			}
			if dup > 0 && rng.Float64() < dup {
				p.dups[k] = struct{}{}
			}
		}
	}
	for e := 1; e <= epochs; e++ {
		if reorder > 0 && rng.Float64() < reorder {
			p.reorder[e] = struct{}{}
		}
	}
	canonicalizeNet(p, epochs, nodes, windows)
	return p
}

// ManualNet builds a partitions-only plan from explicit windows — the
// scripted-scenario entry point. Windows are clamped to [1, epochs+1)
// and nodes 0..nodes-1, empty ones dropped, and per-(node, direction)
// overlapping or touching ones merged.
func ManualNet(epochs, nodes int, windows ...NetWindow) *NetPlan {
	p := &NetPlan{} // nil fate maps: every lookup misses
	canonicalizeNet(p, epochs, nodes, windows)
	return p
}

func canonicalizeNet(p *NetPlan, epochs, nodes int, windows []NetWindow) {
	if epochs < 0 {
		epochs = 0
	}
	if nodes < 0 {
		nodes = 0
	}
	p.Epochs, p.Nodes = epochs, nodes
	var out, in []NetWindow
	for _, w := range windows {
		if w.Node < 0 || w.Node >= nodes {
			continue
		}
		if w.Start < 1 {
			w.Start = 1
		}
		if w.End > epochs+1 {
			w.End = epochs + 1
		}
		if w.Start >= w.End {
			continue
		}
		if w.Dir == DirGrant {
			in = append(in, w)
		} else {
			out = append(out, w)
		}
	}
	p.outWindows = mergeNetWindows(out)
	p.inWindows = mergeNetWindows(in)
}

func mergeNetWindows(ws []NetWindow) []NetWindow {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Node != ws[j].Node {
			return ws[i].Node < ws[j].Node
		}
		return ws[i].Start < ws[j].Start
	})
	var merged []NetWindow
	for _, w := range ws {
		if n := len(merged); n > 0 && merged[n-1].Node == w.Node && w.Start <= merged[n-1].End {
			if w.End > merged[n-1].End {
				merged[n-1].End = w.End
			}
			continue
		}
		merged = append(merged, w)
	}
	return merged
}

// inNetWindows binary-searches canonical windows: sorted by node, and
// per node by start, non-overlapping — so per node the ends ascend too.
func inNetWindows(ws []NetWindow, epoch, node int) bool {
	i := sort.Search(len(ws), func(i int) bool {
		return ws[i].Node > node || (ws[i].Node == node && ws[i].End > epoch)
	})
	return i < len(ws) && ws[i].Node == node && ws[i].Start <= epoch
}

// PartitionedOut reports whether node's report direction is severed at
// epoch — by a partition window or a drop: the report never reaches the
// coordinator.
func (p *NetPlan) PartitionedOut(epoch, node int) bool {
	if p == nil {
		return false
	}
	return inNetWindows(p.outWindows, epoch, node)
}

// PartitionedIn reports whether node's grant direction is severed at
// epoch: the report is delivered but the response is lost.
func (p *NetPlan) PartitionedIn(epoch, node int) bool {
	if p == nil {
		return false
	}
	return inNetWindows(p.inWindows, epoch, node)
}

// Delayed reports whether node's epoch report is held one epoch.
func (p *NetPlan) Delayed(epoch, node int) bool {
	if p == nil {
		return false
	}
	_, ok := p.delays[netKey{epoch: epoch, node: node}]
	return ok
}

// Duplicated reports whether node's delivered epoch report arrives
// twice.
func (p *NetPlan) Duplicated(epoch, node int) bool {
	if p == nil {
		return false
	}
	_, ok := p.dups[netKey{epoch: epoch, node: node}]
	return ok
}

// ReorderedFlush reports whether the delayed reports released at epoch
// are delivered in reversed order.
func (p *NetPlan) ReorderedFlush(epoch int) bool {
	if p == nil {
		return false
	}
	_, ok := p.reorder[epoch]
	return ok
}

// Empty reports whether the plan schedules no chaos at all.
func (p *NetPlan) Empty() bool {
	return p == nil || (len(p.outWindows) == 0 && len(p.inWindows) == 0 &&
		len(p.delays) == 0 && len(p.dups) == 0)
}
