package core

import (
	"sort"

	"skv/internal/fabric"
	"skv/internal/metrics"
	"skv/internal/rdb"
	"skv/internal/replstream"
	"skv/internal/server"
	"skv/internal/sim"
	"skv/internal/transport"
)

// SlaveAgent is the slave-side glue of SKV: it executes the SLAVEOF flow
// through the SmartNIC (initial sync request → payload from master →
// steady-state stream from Nic-KV), answers probes, and reacts to
// promote/demote orders during failover.
type SlaveAgent struct {
	Srv *server.Server
	cfg Config
	net *fabric.Network

	nicEP   *fabric.Endpoint
	nicConn transport.Conn
	id      string
	// dialGen invalidates stale dial callbacks/timeouts when a newer
	// connection attempt supersedes them (reconnect after a link failure).
	dialGen uint64
	// everConnected distinguishes the initial attach from reconnects (which
	// count as resynchronizations).
	everConnected bool

	masterReplID string
	offset       int64
	synced       bool
	// buffered holds stream chunks that arrived before the initial payload
	// (or across a detected gap); offsets deduplicate on drain.
	buffered []streamChunk

	// applier decodes the replication stream (command framing + SELECT
	// context), shared with the baseline masterLink consumer; applyReply is
	// the scratch each applied command's reply is built in and dropped from.
	applier    *replstream.Applier
	applyReply []byte

	progress *sim.Ticker
	// A slave has at most one progress report queued on its proc: the report
	// sends the offset current when it runs, so a second request while one is
	// queued adds nothing. progressTask is sendProgress bound once;
	// progressFrame the scratch the report is built in (Send copies).
	reportQueued  bool
	progressTask  func()
	progressFrame []byte

	// Resyncs, Promoted and Demoted count resynchronization requests and the
	// failover orders obeyed (slaveagent.*, in the server's registry);
	// mApplied counts stream commands executed.
	Resyncs  *metrics.Counter
	Promoted *metrics.Counter
	Demoted  *metrics.Counter
	mApplied *metrics.Counter
}

type streamChunk struct {
	off  int64
	data []byte
}

// AttachSlave wires an SKV slave: listens for the master's payload
// connection, connects to Nic-KV, and sends the initial synchronization
// request (the effect of executing SLAVEOF on the slave, §III-C).
func AttachSlave(srv *server.Server, net *fabric.Network, nicEP *fabric.Endpoint, cfg Config) *SlaveAgent {
	a := &SlaveAgent{
		Srv:   srv,
		cfg:   cfg,
		net:   net,
		nicEP: nicEP,
		id:    srv.Stack().Endpoint().Name(),

		mApplied: srv.Metrics().Counter("slaveagent.applied"),
		Resyncs:  srv.Metrics().Counter("slaveagent.resyncs"),
		Promoted: srv.Metrics().Counter("slaveagent.promoted"),
		Demoted:  srv.Metrics().Counter("slaveagent.demoted"),
	}
	a.progressTask = a.sendProgress
	a.applier = replstream.NewApplier(func(db int, argv [][]byte) {
		a.Srv.Proc().Core.Charge(a.Srv.Params().SlaveApplyCPU)
		a.applyReply, _ = a.Srv.Store().ExecAppend(a.applyReply[:0], db, argv)
		a.mApplied.Inc()
	})
	srv.SetRole(server.RoleSlave)
	srv.Upstream = a
	// Accept the direct payload connection from the master.
	srv.Stack().Listen(ReplPort, func(conn transport.Conn) {
		conn.SetHandler(func(data []byte) { a.onPayload(data) })
	})
	a.connectToNic()
	if cfg.ProgressInterval > 0 {
		a.progress = srv.Engine().Every(cfg.ProgressInterval, a.reportProgress)
	}
	return a
}

// Offset reports the slave's replication offset.
func (a *SlaveAgent) Offset() int64 { return a.offset }

// Synced reports whether the slave is in the steady-state phase.
func (a *SlaveAgent) Synced() bool { return a.synced }

// nicReconnectDelay is the slave's re-check interval when Nic-KV is
// unreachable (the paper's slave re-checks master info periodically), and
// nicDialTimeout bounds a dial whose handshake segments were swallowed by a
// partition or a downed endpoint (no RST ever comes back).
const (
	nicReconnectDelay = 500 * sim.Millisecond
	nicDialTimeout    = 1 * sim.Second
)

func (a *SlaveAgent) connectToNic() {
	a.dialGen++
	gen := a.dialGen
	if !a.Srv.Alive() {
		a.Srv.Engine().After(nicReconnectDelay, func() {
			if gen == a.dialGen {
				a.connectToNic()
			}
		})
		return
	}
	a.Srv.Engine().After(nicDialTimeout, func() {
		if gen == a.dialGen && a.nicConn == nil {
			a.connectToNic()
		}
	})
	a.Srv.Stack().Dial(a.nicEP, NicPort, func(conn transport.Conn, err error) {
		if gen != a.dialGen {
			if err == nil {
				conn.Close() // superseded by a newer attempt
			}
			return
		}
		if err != nil {
			a.Srv.Engine().After(nicReconnectDelay, func() {
				if gen == a.dialGen {
					a.connectToNic()
				}
			})
			return
		}
		a.nicConn = conn
		if a.everConnected {
			a.Resyncs.Inc()
		}
		a.everConnected = true
		conn.SetHandler(a.onNicMessage)
		conn.SetCloseHandler(func() {
			if a.nicConn != conn {
				return
			}
			// Lost the Nic-KV control connection (link failure or Nic-KV
			// restart): fall out of steady state and re-establish.
			a.nicConn = nil
			a.synced = false
			a.Srv.Engine().After(nicReconnectDelay, a.connectToNic)
		})
		a.sendInitSync()
	})
}

// sendInitSync sends the initial synchronization request to the SmartNIC
// on the master node (§III-C step ①): replication ID, offset, identity.
func (a *SlaveAgent) sendInitSync() {
	if a.nicConn == nil {
		return
	}
	a.synced = false
	frame := []byte{msgInitSync}
	frame = appendStr(frame, a.id)
	frame = appendStr(frame, a.masterReplID)
	frame = appendU64(frame, uint64(a.offset))
	a.nicConn.Send(frame)
}

// Resync forces a fresh synchronization (used after recovery).
func (a *SlaveAgent) Resync() {
	a.Resyncs.Inc()
	a.sendInitSync()
}

func (a *SlaveAgent) onNicMessage(data []byte) {
	if len(data) == 0 || !a.Srv.Alive() {
		return
	}
	r := &frameReader{b: data, pos: 1}
	switch data[0] {
	case msgProbe:
		if a.nicConn == nil {
			return // probe raced a connection teardown
		}
		a.Srv.Proc().Core.Charge(a.Srv.Params().ProbeCPU)
		a.nicConn.Send([]byte{msgProbeAck})
	case msgCmdStream, msgCmdStreamAck:
		off := r.i64()
		cmd := r.rest()
		if r.bad {
			return
		}
		a.onStream(off, cmd)
		if data[0] == msgCmdStreamAck {
			// A chunk fanned out while a gate is pending: report progress
			// right away — a master reply is parked on this offset, and the
			// next ProgressInterval cron tick is too far away.
			a.reportProgress()
		}
	case msgPromote:
		// Failover: become the master (§III-D).
		a.Promoted.Inc()
		a.Srv.PromoteToMaster()
	case msgDemote:
		// Original master recovered: downgrade and resynchronize.
		// DemoteRole (not bare SetRole) so OnRoleChange fires and topology
		// layers repair their routing tables symmetrically with promotion.
		a.Demoted.Inc()
		a.Srv.DemoteRole()
		a.Resync()
	}
}

// onStream handles one steady-state replication chunk. Offsets make the
// overlap with the initial payload idempotent and expose gaps (a crashed
// and recovered slave sees a jump and triggers resynchronization).
func (a *SlaveAgent) onStream(off int64, cmd []byte) {
	if a.Srv.Role() == server.RoleMaster {
		return // promoted: no longer a stream consumer
	}
	if !a.synced {
		a.buffered = append(a.buffered, streamChunk{off: off, data: append([]byte(nil), cmd...)})
		return
	}
	switch {
	case off+int64(len(cmd)) <= a.offset:
		// Entirely before our offset: already covered by the payload.
		return
	case off > a.offset:
		// Gap: we missed stream traffic (e.g. while crashed). Buffer and
		// request resynchronization from the current offset.
		a.buffered = append(a.buffered, streamChunk{off: off, data: append([]byte(nil), cmd...)})
		a.Resync()
		return
	}
	// §III-C: "Every time the slave node receives a new command, it executes
	// the command immediately."
	if a.applier.Feed(cmd[a.offset-off:]) != nil {
		a.streamUndecodable()
		return
	}
	a.offset = off + int64(len(cmd))
}

// streamUndecodable handles a chunk the applier refused: the offset stays
// where it was (reporting progress past bytes nobody executed would let
// Nic-KV release a quorum gate on them), and since a RESP stream cannot be
// re-entered mid-way the slave forgets the stream it was following and asks
// for a full synchronization, decoding what follows it from a clean buffer.
func (a *SlaveAgent) streamUndecodable() {
	a.Srv.Metrics().Counter(replstream.ProtocolErrorsMetric).Inc()
	a.applier.Reset()
	a.masterReplID = ""
	a.Resync()
}

// onPayload handles the initial-sync payload from the master (§III-C step
// ③): either the full data file or the backlog range.
func (a *SlaveAgent) onPayload(data []byte) {
	if len(data) == 0 || !a.Srv.Alive() {
		return
	}
	p := a.Srv.Params()
	r := &frameReader{b: data, pos: 1}
	switch data[0] {
	case msgPayloadRDB:
		replID := r.str()
		base := r.i64()
		body := r.rest()
		if r.bad {
			return
		}
		a.Srv.Proc().Core.Charge(sim.Duration(float64(len(body)) * p.RDBPerByte))
		if err := rdb.Load(a.Srv.Store(), body); err != nil {
			a.Resync()
			return
		}
		a.masterReplID = replID
		a.offset = base
		a.enterSteadyState()
	case msgPayloadBacklog:
		replID := r.str()
		start := r.i64()
		body := r.rest()
		if r.bad {
			return
		}
		a.masterReplID = replID
		if skip := a.offset - start; skip > 0 {
			if skip >= int64(len(body)) {
				body = nil
			} else {
				body = body[skip:]
			}
		} else {
			a.offset = start
		}
		if a.applier.Feed(body) != nil {
			a.streamUndecodable()
			return
		}
		a.offset += int64(len(body))
		a.enterSteadyState()
	}
}

// enterSteadyState drains buffered stream chunks and switches to live
// application. The buffer holds frames in ARRIVAL order, which is not
// offset order once a resync raced the live stream (chunks buffered before
// and after the gap interleave): draining as-is would apply commands out of
// order or re-trigger spurious gap resyncs, so order and deduplicate first.
func (a *SlaveAgent) enterSteadyState() {
	a.synced = true
	buf := orderChunks(a.buffered)
	a.buffered = nil
	for i, ch := range buf {
		if !a.synced {
			// A genuine gap re-triggered resync mid-drain: keep the rest
			// buffered for the next payload instead of dropping it.
			a.buffered = append(a.buffered, buf[i:]...)
			return
		}
		a.onStream(ch.off, ch.data)
	}
}

// orderChunks sorts buffered stream chunks by offset and drops duplicate
// offsets (the same frame can be buffered twice across a resync).
func orderChunks(buf []streamChunk) []streamChunk {
	sort.SliceStable(buf, func(i, j int) bool { return buf[i].off < buf[j].off })
	out := buf[:0]
	for i, ch := range buf {
		if i > 0 && ch.off == buf[i-1].off {
			continue
		}
		out = append(out, ch)
	}
	return out
}

// reportProgress queues a report of the replication offset to Nic-KV
// (§III-C step ③), unless one is already waiting for the proc.
func (a *SlaveAgent) reportProgress() {
	if a.nicConn == nil || !a.Srv.Alive() || !a.synced || a.reportQueued {
		return
	}
	a.reportQueued = true
	a.Srv.Proc().Post(a.Srv.Params().ReplyBuildCPU, a.progressTask)
}

// sendProgress is the queued report, on the slave's proc.
func (a *SlaveAgent) sendProgress() {
	a.reportQueued = false
	if a.nicConn == nil || !a.Srv.Alive() {
		return
	}
	a.progressFrame = appendU64(append(a.progressFrame[:0], msgProgress), uint64(a.offset))
	a.nicConn.Send(a.progressFrame)
}
