package core

import (
	"fmt"

	"skv/internal/fabric"
	"skv/internal/metrics"
	"skv/internal/rdb"
	"skv/internal/replstream"
	"skv/internal/server"
	"skv/internal/sim"
	"skv/internal/store"
	"skv/internal/transport"
)

// HostKV is the master-side glue that turns a plain server.Server into an
// SKV master: every write becomes a single replication request posted to
// Nic-KV (one work request instead of one per slave), and the initial
// synchronization payload is served directly to joining slaves (§III-C).
type HostKV struct {
	Srv *server.Server
	cfg Config
	net *fabric.Network

	nicEP   *fabric.Endpoint
	nicConn transport.Conn

	// Latest Nic-KV status report.
	validSlaves    int
	minSlaveOffset int64
	statusSeen     bool
	// nicReplThreads is the effective replication thread count Nic-KV last
	// reported (ThreadNum after the NIC clamps it to its core count); 0
	// until the first status frame carrying the field arrives.
	nicReplThreads int

	// payloadConns are the direct master→slave connections used for the
	// initial-sync payload (§III-C step ③).
	payloadConns map[string]transport.Conn
	pendingSends map[string][][]byte

	// frame is the scratch buffer every replication request is built in:
	// Send copies, so one buffer serves every batch.
	frame []byte

	// Offload and initial-sync counters, resolved once from the server's
	// registry (hostkv.*). ReplReqsSent counts frames (work requests) posted
	// to Nic-KV, CmdsOffloaded the commands they carried: their ratio is the
	// WR amortization batching buys.
	FullSyncs     *metrics.Counter
	PartialSyncs  *metrics.Counter
	ReplReqsSent  *metrics.Counter
	CmdsOffloaded *metrics.Counter
	mProbeAcks    *metrics.Counter
}

// AttachMaster wires an SKV master: connects to Nic-KV, redirects the
// server's replication path to the SmartNIC, and installs the
// min-slaves/lag write gate.
func AttachMaster(srv *server.Server, net *fabric.Network, nicEP *fabric.Endpoint, cfg Config) *HostKV {
	h := &HostKV{
		Srv:          srv,
		cfg:          cfg,
		net:          net,
		nicEP:        nicEP,
		payloadConns: make(map[string]transport.Conn),
		pendingSends: make(map[string][][]byte),

		ReplReqsSent:  srv.Metrics().Counter("hostkv.repl_reqs"),
		CmdsOffloaded: srv.Metrics().Counter("hostkv.cmds_offloaded"),
		FullSyncs:     srv.Metrics().Counter("hostkv.full_syncs"),
		PartialSyncs:  srv.Metrics().Counter("hostkv.partial_syncs"),
		mProbeAcks:    srv.Metrics().Counter("hostkv.probe_acks"),
	}
	srv.OnPropagate = h.propagate
	srv.AddInfoSection(h.infoSection)
	srv.WriteGate = h.gate
	// Redirect-mode CLIENT TRACKING: the host only forwards interest; the
	// invalidation table lives on Nic-KV, which pushes invalidations on the
	// replication fan-out path without any host dispatch cycles. Inert (and
	// cost-free) unless a client negotiates tracking.
	srv.OnTrackInterest = h.trackInterest
	srv.OnTrackDrop = h.trackDrop
	h.ReconnectNic()
	return h
}

// SeverConnections simulates the master process dying together with its
// links: the Nic-KV control connection and the direct payload connections
// are closed (a dead process's QPs flush with errors; peers see the close).
func (h *HostKV) SeverConnections() {
	if h.nicConn != nil {
		h.nicConn.Close()
		h.nicConn = nil
	}
	for id, conn := range h.payloadConns {
		conn.Close()
		delete(h.payloadConns, id)
	}
	h.pendingSends = make(map[string][][]byte)
	h.statusSeen = false
}

// ReconnectNic establishes the Nic-KV control connection — at attach, and
// again after a master process restart — and announces the master with
// msgMasterHello, retrying until Nic-KV is reachable. The restart case is
// the path §III-D's restore handles: a recovered master reappearing on a
// brand-new connection.
func (h *HostKV) ReconnectNic() {
	if !h.Srv.Alive() {
		return
	}
	h.Srv.Stack().Dial(h.nicEP, NicPort, func(conn transport.Conn, err error) {
		if err != nil {
			h.Srv.Engine().After(500*sim.Millisecond, h.ReconnectNic)
			return
		}
		h.nicConn = conn
		conn.SetHandler(h.onNicMessage)
		conn.Send([]byte{msgMasterHello})
	})
}

// propagate replaces feedSlaves: one replication request to the SmartNIC
// per flushed batch, regardless of the slave count. The entire steady-state
// replication then happens in the background on the NIC while the master
// returns to its clients ("the host CPU only needs to post one WR for the
// replication of each SET command", §V-C). With ReplBatchMaxCmds > 1 the
// batch carries several commands, so one WR covers N writes. The gate of
// the batch's quorum/all writes rides in the same request: Nic-KV holds
// their replies until enough slaves report past the batch's end and answers
// with msgAckRelease watermarks ("the host CPU never sees the wait"), and a
// gate cannot reach the NIC ahead of the bytes it covers.
func (h *HostKV) propagate(b replstream.Batch) {
	if h.nicConn == nil {
		// NIC connection still handshaking: the backlog covers the bytes,
		// the status-frame fallback releases a gate that went with them.
		return
	}
	h.Srv.Proc().Core.Charge(h.Srv.Params().ReplOffloadReqCPU)
	h.ReplReqsSent.Inc()
	h.CmdsOffloaded.Add(uint64(b.Cmds))
	h.frame = appendOffload(h.frame[:0], b.Start, b.Gate, b.Cmds, b.Data)
	h.nicConn.Send(h.frame)
}

// trackInterest forwards one tracked read's key interest to Nic-KV. It
// rides the same FIFO connection as the replication requests, so the NIC
// is guaranteed to hold the interest before any later write's fan-out —
// the ordering that makes missed invalidations impossible.
func (h *HostKV) trackInterest(name, key string) {
	if h.nicConn == nil {
		return // handshake in flight; the client re-registers on its next read
	}
	h.Srv.Proc().Core.Charge(h.Srv.Params().TrackInterestCPU)
	frame := []byte{msgTrackKey}
	frame = appendStr(frame, name)
	frame = appendKey(frame, key)
	h.nicConn.Send(frame)
}

// trackDrop tells Nic-KV to forget every interest held by subscriber name
// (CLIENT TRACKING OFF or client disconnect).
func (h *HostKV) trackDrop(name string) {
	if h.nicConn == nil {
		return
	}
	h.Srv.Proc().Core.Charge(h.Srv.Params().TrackInterestCPU)
	frame := []byte{msgTrackDrop}
	frame = appendStr(frame, name)
	h.nicConn.Send(frame)
}

// infoSection is the SKV block of the master's INFO output: the offload
// accounting plus the slave availability picture Nic-KV last reported.
func (h *HostKV) infoSection() store.InfoSection {
	return store.InfoSection{Name: "SKV", Lines: []string{
		fmt.Sprintf("valid_slaves:%d", h.validSlaves),
		fmt.Sprintf("min_slave_offset:%d", h.minSlaveOffset),
		fmt.Sprintf("repl_reqs_sent:%d", h.ReplReqsSent.Value()),
		fmt.Sprintf("cmds_offloaded:%d", h.CmdsOffloaded.Value()),
		fmt.Sprintf("full_syncs:%d", h.FullSyncs.Value()),
		fmt.Sprintf("partial_syncs:%d", h.PartialSyncs.Value()),
		fmt.Sprintf("nic_repl_threads:%d", h.nicReplThreads),
	}}
}

// gate vetoes writes when availability or replication lag violate the
// configured bounds (§III-C/§III-D).
func (h *HostKV) gate() string {
	if h.cfg.MinSlaves > 0 {
		if !h.statusSeen || h.validSlaves < h.cfg.MinSlaves {
			return "NOREPLICAS Not enough available slaves to accept writes."
		}
	}
	if h.cfg.MaxLag > 0 && h.statusSeen && h.validSlaves > 0 {
		if lag := h.Srv.ReplOffset() - h.minSlaveOffset; lag > h.cfg.MaxLag {
			return "LAGGING Replication progress is too slow."
		}
	}
	return ""
}

func (h *HostKV) onNicMessage(data []byte) {
	if len(data) == 0 || !h.Srv.Alive() {
		return
	}
	r := &frameReader{b: data, pos: 1}
	switch data[0] {
	case msgProbe:
		// "When the master node and the slave nodes receive this message,
		// they reply to Nic-KV immediately."
		h.Srv.Proc().Core.Charge(h.Srv.Params().ProbeCPU)
		h.mProbeAcks.Inc()
		h.nicConn.Send([]byte{msgProbeAck})
	case msgNewSlave:
		id := r.str()
		replID := r.str()
		off := r.i64()
		if r.bad {
			return
		}
		h.serveNewSlave(id, replID, off)
	case msgStatus:
		offs, minOff, threads, ok := r.status()
		if !ok {
			return
		}
		h.nicReplThreads = threads
		h.minSlaveOffset = minOff
		h.validSlaves = len(offs)
		h.statusSeen = true
		// Feed the consistency plane: SetAll re-evaluates WAITers and parked
		// replies, so even if a gate release frame were lost the next status
		// report unblocks whatever the offsets now satisfy.
		h.Srv.Acks().SetAll(offs)
	case msgAckRelease:
		off := r.i64()
		if r.bad {
			return
		}
		// The NIC released every gated reply at or below this watermark.
		h.Srv.Acks().ReleaseUpTo(off)
	}
}

// serveNewSlave performs the master's part of the initial synchronization
// phase: persist everything (fork + RDB serialization cost), establish the
// direct connection to the slave, compare replication offsets, and send
// either the backlog range (partial) or the full data file (§III-C Fig 8).
func (h *HostKV) serveNewSlave(id, replID string, off int64) {
	srv := h.Srv
	p := srv.Params()

	// Persist all key-value data (paper: this happens before the offset
	// comparison).
	srv.Proc().Core.Charge(p.ForkCPU)
	dump := rdb.Dump(srv.Store())
	srv.Proc().Core.Charge(sim.Duration(float64(len(dump)) * p.RDBPerByte))

	var frame []byte
	if replID == srv.ReplID() {
		if delta, okRange := srv.Backlog().Range(off); okRange {
			// Deviation inside the backlog (or zero): partial resync.
			h.PartialSyncs.Inc()
			frame = []byte{msgPayloadBacklog}
			frame = appendStr(frame, srv.ReplID())
			frame = appendU64(frame, uint64(off))
			frame = append(frame, delta...)
		}
	}
	if frame == nil {
		h.FullSyncs.Inc()
		frame = []byte{msgPayloadRDB}
		frame = appendStr(frame, srv.ReplID())
		frame = appendU64(frame, uint64(srv.ReplOffset()))
		frame = append(frame, dump...)
	}
	h.sendPayload(id, frame)
}

// sendPayload delivers an initial-sync frame over the direct master→slave
// connection, dialing it on first use.
func (h *HostKV) sendPayload(id string, frame []byte) {
	if conn, okConn := h.payloadConns[id]; okConn && !conn.Closed() {
		conn.Send(frame)
		return
	}
	h.pendingSends[id] = append(h.pendingSends[id], frame)
	if len(h.pendingSends[id]) > 1 {
		return // dial already in flight
	}
	ep := h.net.EndpointByName(id)
	if ep == nil {
		delete(h.pendingSends, id)
		return
	}
	h.Srv.Stack().Dial(ep, ReplPort, func(conn transport.Conn, err error) {
		queued := h.pendingSends[id]
		delete(h.pendingSends, id)
		if err != nil {
			return // slave vanished; it will re-request sync
		}
		h.payloadConns[id] = conn
		for _, f := range queued {
			conn.Send(f)
		}
	})
}
