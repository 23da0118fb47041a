package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"time"

	"sturgeon/internal/cluster"
	"sturgeon/internal/coordinator"
	"sturgeon/internal/durable"
	"sturgeon/internal/jsonio"
	"sturgeon/internal/obs"
)

// replayMax bounds the requests replayed per layer: with a state
// directory every replayed report is an fsync.
const replayMax = 4096

// replayCtl is the traced pass of a control-plane workload. The daemon
// runs out of process, so its layers are measured on an in-process
// twin: the recorded request stream is driven through
// Server.Handler().ServeHTTP (with a Persist on the same filesystem
// when the workload keeps state), and then through each layer beneath
// the handler on its own — decode, submit and arbitrate, record
// encoding, log append with and without fsync, snapshot, recovery.
func replayCtl(cfg runConfig, rep *report, tr *tracer, nodes int, durableState bool,
	samples []opSample, reportP50US float64) error {
	// The stream, in the order the generator numbered it: the warm-up
	// epoch first, then every completed request.
	sort.Slice(samples, func(i, j int) bool { return samples[i].endNS < samples[j].endNS })
	stream := make([]opSample, 0, nodes+len(samples))
	for r := 0; r < nodes; r++ {
		stream = append(stream, opSample{kind: opReport, seq: uint64(r)})
	}
	for _, s := range samples {
		if s.ok {
			stream = append(stream, s)
		}
	}
	if len(stream) > replayMax {
		stream = stream[:replayMax]
	}

	// What the generator's own stack costs: the same closed loop against
	// a handler that answers every report with a canned grant.
	var canned [ctlClients][]byte
	for c := range canned {
		var err error
		canned[c], err = jsonio.Marshal(&coordinator.Grant{Schema: coordinator.Schema, NodeID: cluster.NodeID(c), CapW: ctlEvenCapW})
		if err != nil {
			return err
		}
	}
	null := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		answer := canned[0]
		for c := 1; c < ctlClients; c++ {
			if bytes.Contains(body, []byte(cluster.NodeID(c))) {
				answer = canned[c]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(answer)
	}))
	ng := &generator{base: null.URL, seed: cfg.seed, nodes: ctlClients, mix: reportsOnly}
	var rtts []float64
	for _, s := range ng.run(cfg.ctx, time.Duration(min(cfg.seconds/5, 1)*float64(time.Second))) {
		if s.ok {
			rtts = append(rtts, s.micros)
		}
	}
	null.Close()
	rep.set("gen.null_rtt_us", median(rtts))

	// The twin.
	opt := ctlOptions(nodes)
	co, err := coordinator.New(opt)
	if err != nil {
		return err
	}
	srv := coordinator.NewServer(co)
	srv.SetObs(obs.New(0))
	if durableState {
		dir, err := os.MkdirTemp(cfg.buildDir, "twin-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		store, err := durable.Open(dir)
		if err != nil {
			return err
		}
		defer store.Close()
		srv.SetPersist(&coordinator.Persist{Store: store})
	}
	// The stream's reports and their request bodies, as the client
	// library renders them.
	var reports []coordinator.NodeReport
	var bodies [][]byte
	for _, s := range stream {
		if s.kind != opReport {
			continue
		}
		r := makeReport(cfg.seed, nodes, s.seq)
		body, err := jsonio.Marshal(&r)
		if err != nil {
			return err
		}
		reports, bodies = append(reports, r), append(bodies, body)
	}

	handler := srv.Handler()
	var busyNS, calls [numOpKinds]int64
	var cursor int64
	sent := 0 // reports replayed so far
	for _, s := range stream {
		var req *http.Request
		switch s.kind {
		case opReport:
			req = httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(bodies[sent]))
			tr.trace = fmt.Sprintf("%s/epoch-%d", cfg.workload, reports[sent].Epoch)
			sent++
		case opStatus:
			req = httptest.NewRequest(http.MethodGet, "/fleet/status", nil)
		case opGrant:
			req = httptest.NewRequest(http.MethodGet, "/v1/grant?node="+
				cluster.NodeID(int(splitmix(cfg.seed, s.seq)%uint64(nodes))), nil)
		case opMetrics:
			req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
		case opEvents:
			req = httptest.NewRequest(http.MethodGet, "/v1/events?since="+strconv.FormatInt(cursor, 10), nil)
		}
		rec := httptest.NewRecorder()
		start := tr.now()
		handler.ServeHTTP(rec, req)
		end := tr.now()
		tr.leaf("coordinator.handler."+opNames[s.kind], start, end)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("twin answered %s %d with %d: %s", opNames[s.kind], s.seq, rec.Code, rec.Body)
		}
		if s.kind == opEvents {
			var doc obs.EventsDoc
			if err := jsonio.Decode(rec.Body, &doc); err == nil && len(doc.Events) > 0 {
				cursor = doc.Events[len(doc.Events)-1].Seq
			}
		}
		busyNS[s.kind] += end - start
		calls[s.kind]++
	}
	meanUS := func(k opKind) float64 { return float64(busyNS[k]) / float64(max(calls[k], 1)) / 1e3 }
	rep.set("coordinator.handler.report.mean_us", meanUS(opReport))
	rep.set("coordinator.handler.status.mean_us", meanUS(opStatus))
	rep.set("coordinator.handler.grant.mean_us", meanUS(opGrant))
	rep.set("obs.metrics_render.mean_us", meanUS(opMetrics))
	rep.set("obs.events_since.mean_us", meanUS(opEvents))
	// What is not the daemon's to save: client library, loopback TCP and
	// net/http on both sides.
	rep.set("ctl.http_overhead_us", reportP50US-meanUS(opReport))

	// The layers beneath the handler, on the stream's reports.
	n := float64(len(reports))

	t0 := time.Now()
	for _, body := range bodies {
		var r coordinator.NodeReport
		if err := jsonio.Decode(bytes.NewReader(body), &r); err != nil {
			return err
		}
	}
	rep.set("jsonio.decode_report.mean_us", time.Since(t0).Seconds()/n*1e6)

	// Submit, timed per call. A submission that closes an epoch carries
	// the arbitration; its grant is the first stamped with that epoch.
	fresh, err := coordinator.New(opt)
	if err != nil {
		return err
	}
	grants := make([]coordinator.Grant, len(reports))
	var payloads [][]byte
	var submitUS, closingUS []float64
	arbEpoch := 0
	for i, r := range reports {
		t0 := time.Now()
		g, _, err := fresh.SubmitDedup(r)
		us := float64(time.Since(t0)) / 1e3
		if err != nil {
			return err
		}
		grants[i] = g
		submitUS = append(submitUS, us)
		if g.Epoch != arbEpoch {
			arbEpoch = g.Epoch
			closingUS = append(closingUS, us)
		}
	}
	rep.set("coordinator.submit.mean_us", mean(submitUS))
	rep.set("coordinator.arbitrate.mean_us", mean(closingUS))
	sort.Float64s(submitUS)
	rep.set("coordinator.submit.p99_us", quantile(submitUS, 0.99))

	t0 = time.Now()
	for i := range grants {
		if _, err := jsonio.Marshal(&grants[i]); err != nil {
			return err
		}
	}
	rep.set("jsonio.marshal_grant.mean_us", time.Since(t0).Seconds()/n*1e6)

	t0 = time.Now()
	for _, r := range reports {
		payload, err := coordinator.EncodeReportRecord(r)
		if err != nil {
			return err
		}
		payloads = append(payloads, payload)
	}
	rep.set("coordinator.encode_record.mean_us", time.Since(t0).Seconds()/n*1e6)

	// Framing and CRC without a disk, then recovery from that log.
	mem := durable.NewMemStore()
	t0 = time.Now()
	for _, p := range payloads {
		if err := mem.Append(p); err != nil {
			return err
		}
	}
	rep.set("durable.append_mem.mean_us", time.Since(t0).Seconds()/n*1e6)
	t0 = time.Now()
	_, info, err := coordinator.Recover(mem, opt, nil)
	if err != nil {
		return err
	}
	rep.set("coordinator.recover.us_per_record", time.Since(t0).Seconds()/n*1e6)
	rep.check(info.ReplayedReports == len(reports), "recovery replayed %d of %d records", info.ReplayedReports, len(reports))
	if !durableState {
		return nil
	}

	// The same appends on the workload's filesystem, fsync and all, and
	// the snapshot that bounds a recovery's replay.
	dir, err := os.MkdirTemp(cfg.buildDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := durable.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	var appendUS []float64
	for _, p := range payloads[:min(len(payloads), replayMax/4)] {
		t0 := time.Now()
		if err := store.Append(p); err != nil {
			return err
		}
		appendUS = append(appendUS, float64(time.Since(t0))/1e3)
	}
	rep.set("durable.append.mean_us", mean(appendUS))
	sort.Float64s(appendUS)
	rep.set("durable.append.p99_us", quantile(appendUS, 0.99))
	persist := &coordinator.Persist{Store: store}
	const snapshots = 5
	t0 = time.Now()
	for i := 0; i < snapshots; i++ {
		if err := persist.Snapshot(fresh); err != nil {
			return err
		}
	}
	rep.set("durable.snapshot.mean_ms", time.Since(t0).Seconds()/snapshots*1e3)
	return nil
}
