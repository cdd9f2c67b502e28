package server

import (
	"fmt"
	"strconv"
	"strings"

	"skv/internal/fabric"
	"skv/internal/rdb"
	"skv/internal/replstream"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/transport"
)

// ---- Master side ----

// propagate enters a write into the replication stream and returns the
// replication offset the write ends at (what WAIT must see acked). The
// replstream Writer owns backlog append, SELECT injection, and batching;
// flushed batches come back through flushReplBatch, carrying the gate of a
// write whose reply waits on replica acknowledgments.
func (s *Server) propagate(db int, argv [][]byte, gate replstream.Gate) int64 {
	s.WritesPropagated++
	return s.repl.AppendGated(db, argv, gate)
}

// ReplStream exposes the replication stream writer (stats, forced flushes
// in tests).
func (s *Server) ReplStream() *replstream.Writer { return s.repl }

// flushReplBatch delivers one flushed batch downstream: the SKV offload
// hook when installed, the default per-slave fan-out otherwise. Batches
// flushed after a crash are dropped — the bytes are already in the backlog,
// and offset-aware consumers resynchronize from there.
func (s *Server) flushReplBatch(b replstream.Batch) {
	if !s.alive {
		return
	}
	if s.OnPropagate != nil {
		s.OnPropagate(b)
		return
	}
	s.feedSlaves(b)
}

// feedSlaves is the RDMA-Redis/original-Redis steady-state replication: the
// master writes the batch into every slave's output buffer and flushes it —
// consuming CPU (and a posted work request, inside conn.Send) per slave per
// batch. Unbatched (the default) that is per slave per write: exactly the
// overhead Fig 7 measures and SKV offloads. With batching, one send
// amortizes the feed cost over every write coalesced in the tick.
func (s *Server) feedSlaves(b replstream.Batch) {
	p := s.params
	for _, sl := range s.slaves {
		s.proc.Core.Charge(p.ReplFeedSlaveCPU)
		if p.ReplFeedJitterP > 0 && s.rnd.Float64() < p.ReplFeedJitterP {
			// Output-buffer growth / backlog trim slow path.
			s.proc.Core.Charge(p.ReplFeedJitterCPU)
		}
		sl.client.conn.Send(b.Data)
	}
}

// cmdPSync implements the master side of the synchronization handshake:
// partial resync from the backlog when possible, full RDB transfer
// otherwise (paper §III-C initial synchronization, inherited from Redis).
func (s *Server) cmdPSync(c *client, argv [][]byte) {
	if len(argv) != 3 {
		s.reply(c, resp.AppendError(nil, "ERR wrong number of arguments for 'psync' command"))
		return
	}
	wantID := string(argv[1])
	wantOff, err := strconv.ParseInt(string(argv[2]), 10, 64)
	if err != nil {
		s.reply(c, resp.AppendError(nil, "ERR invalid offset"))
		return
	}
	// Flush any batched stream bytes first: the offsets snapshotted below
	// must cover everything already sent, or the joining slave would see
	// the pending batch twice (once in the backlog delta, once live).
	s.repl.Flush()
	c.isSlaveLink = true
	// The replication channel belongs to the dispatch proc — the merge stage
	// feeds it and the stream's costs stay on the serialized-order owner —
	// so a routing-plane connection hands itself back before the snapshot.
	s.disownClient(c)
	sl := &slaveHandle{client: c, addr: endpointName(c.conn.RemoteAddr())}
	// A slave that re-syncs on a fresh connection must not leave its old
	// handle behind: feedSlaves would keep charging CPU for and sending to
	// the dead channel forever. Dedupe by remote endpoint.
	s.dropSlaveHandle(sl.addr)
	if wantID == s.replID {
		if delta, okRange := s.backlog.Range(wantOff); okRange {
			// Partial resynchronization.
			s.acks.SetReplica(sl.addr, wantOff)
			s.slaves = append(s.slaves, sl)
			s.reply(c, resp.AppendSimple(nil, "CONTINUE"))
			if len(delta) > 0 {
				s.proc.Core.Charge(s.params.ReplFeedSlaveCPU)
				c.conn.Send(delta)
			}
			return
		}
	}
	// Full resynchronization: persist all data (the paper's step ②; the
	// fork plus serialization consume master CPU) and ship the RDB file.
	s.reply(c, resp.AppendSimple(nil, fmt.Sprintf("FULLRESYNC %s %d", s.replID, s.ReplOffset())))
	s.proc.Core.Charge(s.params.ForkCPU)
	dump := rdb.Dump(s.store)
	s.proc.Core.Charge(sim.Duration(float64(len(dump)) * s.params.RDBPerByte))
	s.acks.SetReplica(sl.addr, s.ReplOffset())
	s.slaves = append(s.slaves, sl)
	c.conn.Send(dump)
}

// endpointName strips the per-connection suffix ("host:#7", "host:qp3")
// from a transport address, leaving the fabric endpoint name: the identity
// a re-syncing slave keeps across connections.
func endpointName(addr string) string {
	if i := strings.IndexByte(addr, ':'); i >= 0 {
		return addr[:i]
	}
	return addr
}

// dropSlaveHandle removes any attached slave handle whose connection
// terminates at addr (a re-syncing slave superseding its old channel).
func (s *Server) dropSlaveHandle(addr string) {
	kept := s.slaves[:0]
	for _, sl := range s.slaves {
		if sl.addr == addr {
			continue
		}
		kept = append(kept, sl)
	}
	s.slaves = kept
	s.acks.DropReplica(addr)
}

// cmdReplConf handles REPLCONF; ACK carries the slave's replication
// progress (paper §III-C step ③: the progress report).
func (s *Server) cmdReplConf(c *client, argv [][]byte) {
	if len(argv) >= 3 && strings.EqualFold(string(argv[1]), "ACK") {
		off, err := strconv.ParseInt(string(argv[2]), 10, 64)
		if err == nil {
			for _, sl := range s.slaves {
				if sl.client == c {
					// Ack pushes progress into the consistency plane, which
					// fires whatever WAITs and parked replies it satisfies.
					s.acks.Ack(sl.addr, off)
				}
			}
		}
		return // ACK gets no reply
	}
	s.reply(c, resp.AppendSimple(nil, "OK"))
}

func (s *Server) cmdSlaveOf(c *client, argv [][]byte) {
	if len(argv) == 3 && strings.EqualFold(string(argv[1]), "NO") && strings.EqualFold(string(argv[2]), "ONE") {
		s.PromoteToMaster()
		s.reply(c, resp.AppendSimple(nil, "OK"))
		return
	}
	// In-simulation addressing is by endpoint, not hostname; the harness
	// wires replication via the SlaveOf API.
	s.reply(c, resp.AppendError(nil, "ERR use the SlaveOf API in simulation"))
}

// SlaveAckOffsets reports each attached slave's acknowledged offset (from
// the consistency tracker, in attach order).
func (s *Server) SlaveAckOffsets() []int64 { return s.acks.Offsets() }

// ---- Slave side ----

// linkState tracks the replication handshake progress.
type linkState int

const (
	linkConnecting linkState = iota
	linkWaitPsyncReply
	linkWaitRDB
	linkStreaming
)

// masterLink is the slave's connection to its master.
type masterLink struct {
	srv        *Server
	conn       transport.Conn
	targetEP   *fabric.Endpoint
	targetPort int
	state      linkState

	masterReplID string
	offset       int64
	// applier decodes the (possibly batched) replication stream: command
	// framing and SELECT context live in replstream, shared with the SKV
	// slave agent.
	applier *replstream.Applier
}

// MasterOffset reports the slave's replication offset (bytes of stream
// applied or in the query buffer).
func (s *Server) MasterOffset() int64 {
	switch {
	case s.Upstream != nil:
		return s.Upstream.Offset()
	case s.master == nil:
		return 0
	}
	return s.master.offset
}

// SyncedWithMaster reports whether the slave reached steady-state
// streaming.
func (s *Server) SyncedWithMaster() bool {
	if s.Upstream != nil {
		return s.Upstream.Synced()
	}
	return s.master != nil && s.master.state == linkStreaming
}

// SlaveOf connects this server as a slave of the given master endpoint
// (the SLAVEOF command's effect). Passing nil promotes to master.
func (s *Server) SlaveOf(target *fabric.Endpoint, port int) {
	if target == nil {
		s.PromoteToMaster()
		return
	}
	s.role = RoleSlave
	ml := &masterLink{srv: s, targetEP: target, targetPort: port, state: linkConnecting}
	var reply []byte // the scratch each applied command's reply is dropped from
	ml.applier = replstream.NewApplier(func(db int, argv [][]byte) {
		// "Every time the slave node receives a new command, it executes
		// the command immediately to ensure that its data is consistent
		// with the master node."
		s.proc.Core.Charge(s.params.SlaveApplyCPU)
		reply, _ = s.store.ExecAppend(reply[:0], db, argv)
	})
	// Carry over prior sync state for partial resynchronization.
	if s.master != nil {
		ml.masterReplID = s.master.masterReplID
		ml.offset = s.master.offset
	}
	s.master = ml
	s.stack.Dial(target, port, func(conn transport.Conn, err error) {
		if !s.alive || s.master != ml {
			return
		}
		if err != nil {
			// Master unreachable: retry after a beat (the paper's slave
			// checks for master info "at every certain interval").
			s.eng.After(500*sim.Millisecond, func() {
				if s.alive && s.master == ml {
					s.SlaveOf(target, port)
				}
			})
			return
		}
		ml.conn = conn
		conn.SetHandler(func(data []byte) { ml.onMessage(data) })
		conn.SetCloseHandler(func() {})
		id := ml.masterReplID
		if id == "" {
			id = "?"
		}
		ml.state = linkWaitPsyncReply
		s.proc.Core.Charge(s.params.ReplyBuildCPU)
		conn.Send(resp.EncodeCommand("PSYNC", id, strconv.FormatInt(ml.offset, 10)))
	})
}

// onMessage drives the slave-side sync state machine.
func (ml *masterLink) onMessage(data []byte) {
	s := ml.srv
	if !s.alive || s.master != ml {
		return
	}
	switch ml.state {
	case linkWaitPsyncReply:
		var r resp.Reader
		r.Feed(data)
		v, ok, err := r.ReadValue()
		if err != nil || !ok || v.Type != resp.TypeSimple {
			return
		}
		fields := strings.Fields(string(v.Str))
		switch {
		case len(fields) == 3 && fields[0] == "FULLRESYNC":
			ml.masterReplID = fields[1]
			off, _ := strconv.ParseInt(fields[2], 10, 64)
			ml.offset = off
			ml.state = linkWaitRDB
		case len(fields) >= 1 && fields[0] == "CONTINUE":
			ml.state = linkStreaming
		}
		// Any trailing bytes in the same message are stream data.
		if rest := data[len(data)-r.Buffered():]; len(rest) > 0 && ml.state == linkStreaming {
			ml.onMessage(rest)
		}
	case linkWaitRDB:
		// The RDB payload: charge load cost proportional to size.
		s.proc.Core.Charge(sim.Duration(float64(len(data)) * s.params.RDBPerByte))
		if err := rdb.Load(s.store, data); err != nil {
			// Corrupt transfer: restart sync from scratch.
			ml.masterReplID = ""
			ml.offset = 0
			s.SlaveOf(ml.targetEP, ml.targetPort)
			return
		}
		ml.state = linkStreaming
	case linkStreaming:
		if err := ml.applier.Feed(data); err != nil {
			// Undecodable stream bytes: nothing from here on can be executed,
			// so the offset must not cover them (a REPLCONF ACK past them
			// would release a quorum write no replica holds). Restart the
			// sync from scratch, as for a corrupt RDB transfer.
			s.metrics.Counter(replstream.ProtocolErrorsMetric).Inc()
			ml.masterReplID = ""
			ml.offset = 0
			s.SlaveOf(ml.targetEP, ml.targetPort)
			return
		}
		ml.offset += int64(len(data))
	}
}

// sendAck reports replication progress to the master (REPLCONF ACK).
func (ml *masterLink) sendAck() {
	if ml.conn == nil || ml.state != linkStreaming {
		return
	}
	ml.srv.proc.Core.Charge(ml.srv.params.ReplyBuildCPU)
	ml.conn.Send(resp.EncodeCommand("REPLCONF", "ACK", strconv.FormatInt(ml.offset, 10)))
}
