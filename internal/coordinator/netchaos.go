package coordinator

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sturgeon/internal/faults"
)

// NetChaos wraps any Transport with a deterministic network-fault
// schedule (faults.NetPlan): directed partitions (a dropped report is a
// one-epoch report-direction partition), one-epoch delay with optional
// reorder, and duplication. Because the plan is a pure function of
// (spec, seed, epochs, nodes) and the wrapper is driven purely by the
// report sequence, the in-process Local transport and the networked
// HTTP Client observe the identical schedule — the property the
// partition-soak battery pins across both paths.
//
// Message fates, in the order they are considered per report (after
// the previous epoch's delayed reports are flushed):
//
//   - partitioned out: the report never reaches the coordinator; the
//     caller sees an error (a missed renewal).
//   - delayed: the report is buffered and delivered at the next epoch's
//     first Report call, before that epoch's fresh reports — in node
//     order, or reversed when the plan schedules a reorder. Its grant
//     response arrives too late to matter and is discarded, so the
//     caller still sees an error this epoch.
//   - duplicated: the report is delivered twice back to back — the
//     retry-after-lost-ack shape the server-side (node, epoch) dedupe
//     neutralizes.
//   - partitioned in: the report IS delivered (the coordinator renews
//     the lease) but the grant response is lost — the asymmetric case
//     the lease invariants exist for.
//
// Status passes through untouched: the invariant harness reads it as
// out-of-band ground truth, not as node traffic.
type NetChaos struct {
	Inner Transport
	Plan  *faults.NetPlan

	stats   NetStats
	delayed []delayedReport
	flushed int // newest epoch whose delayed flush has run
}

// NetStats counts the message fates the wrapper imposed.
type NetStats struct {
	PartitionedOut int `json:"partitioned_out"`
	PartitionedIn  int `json:"partitioned_in"`
	Delayed        int `json:"delayed"`
	DeliveredLate  int `json:"delivered_late"`
	Duplicated     int `json:"duplicated"`
	Reordered      int `json:"reordered"`
}

type delayedReport struct {
	r    NodeReport
	node int
}

// ErrNetChaos is the error returned for every report the schedule
// severs; callers treat it like any other transport failure (run on
// the last grant, count a fallback).
var ErrNetChaos = errors.New("coordinator: netchaos severed link")

// One preallocated error per severing fate: a lost report is the
// common case under chaos and must not allocate.
var (
	errPartitioned = fmt.Errorf("%w: report partitioned", ErrNetChaos)
	errDelayed     = fmt.Errorf("%w: report delayed", ErrNetChaos)
	errGrantLost   = fmt.Errorf("%w: grant lost", ErrNetChaos)
)

// Stats returns the tallies so far.
func (n *NetChaos) Stats() NetStats { return n.stats }

// nodeIndex maps a report's NodeID to the plan's node index by the
// fleet convention of a trailing decimal index ("node-003" → 3); -1 when
// the ID carries none. Reports mapping outside [0, Plan.Nodes) pass
// through unharmed.
func nodeIndex(nodeID string) int {
	if i := strings.LastIndexByte(nodeID, '-'); i >= 0 {
		if v, err := strconv.Atoi(nodeID[i+1:]); err == nil {
			return v
		}
	}
	return -1
}

// flush delivers the buffered delayed reports once per epoch advance,
// before the epoch's fresh reports. Responses are discarded — they are
// answers to last epoch's question.
func (n *NetChaos) flush(ctx context.Context, epoch int) {
	if epoch <= n.flushed {
		return
	}
	n.flushed = epoch
	if len(n.delayed) == 0 {
		return
	}
	batch := n.delayed
	n.delayed = nil
	sort.Slice(batch, func(i, j int) bool {
		if batch[i].r.Epoch != batch[j].r.Epoch {
			return batch[i].r.Epoch < batch[j].r.Epoch
		}
		return batch[i].node < batch[j].node
	})
	if n.Plan.ReorderedFlush(epoch) {
		n.stats.Reordered++
		for i, j := 0, len(batch)-1; i < j; i, j = i+1, j-1 {
			batch[i], batch[j] = batch[j], batch[i]
		}
	}
	for _, d := range batch {
		_, _ = n.Inner.Report(ctx, d.r)
		n.stats.DeliveredLate++
	}
}

// Report implements Transport.
func (n *NetChaos) Report(ctx context.Context, r NodeReport) (Grant, error) {
	node := nodeIndex(r.NodeID)
	n.flush(ctx, r.Epoch)
	if node < 0 || node >= n.Plan.Nodes {
		return n.Inner.Report(ctx, r)
	}
	switch {
	case n.Plan.PartitionedOut(r.Epoch, node):
		n.stats.PartitionedOut++
		return Grant{}, errPartitioned
	case n.Plan.Delayed(r.Epoch, node):
		n.stats.Delayed++
		n.delayed = append(n.delayed, delayedReport{r: r, node: node})
		return Grant{}, errDelayed
	}
	g, err := n.Inner.Report(ctx, r)
	if n.Plan.Duplicated(r.Epoch, node) {
		// The duplicate's response goes nowhere; the server-side dedupe
		// makes the re-delivery a pure no-op.
		n.stats.Duplicated++
		_, _ = n.Inner.Report(ctx, r)
	}
	if err != nil {
		return Grant{}, err
	}
	if n.Plan.PartitionedIn(r.Epoch, node) {
		n.stats.PartitionedIn++
		return Grant{}, errGrantLost
	}
	return g, nil
}

// Status implements Transport, passing straight through.
func (n *NetChaos) Status(ctx context.Context) (*FleetStatus, error) {
	return n.Inner.Status(ctx)
}
