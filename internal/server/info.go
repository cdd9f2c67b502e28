package server

import (
	"fmt"

	"skv/internal/sim"
	"skv/internal/store"
)

// infoSections is the server's store.InfoProvider: it assembles the
// Redis-style INFO sections from live node state. The store appends its
// Keyspace section after these.
func (s *Server) infoSections() []store.InfoSection {
	secs := []store.InfoSection{
		s.infoServer(),
		s.infoClients(),
		s.infoReplication(),
		s.infoStats(),
	}
	for _, fn := range s.extraInfo {
		secs = append(secs, fn())
	}
	return secs
}

func (s *Server) infoServer() store.InfoSection {
	return store.InfoSection{Name: "Server", Lines: []string{
		"server_name:" + s.name,
		"transport:" + s.stack.Transport(),
		fmt.Sprintf("tcp_port:%d", s.port),
		fmt.Sprintf("sim_time_ms:%d", int64(s.eng.Now()/sim.Time(sim.Millisecond))),
		fmt.Sprintf("process_alive:%d", boolBit(s.alive)),
	}}
}

func (s *Server) infoClients() store.InfoSection {
	connected := 0
	for _, c := range s.clients {
		if !c.isSlaveLink {
			connected++
		}
	}
	return store.InfoSection{Name: "Clients", Lines: []string{
		fmt.Sprintf("connected_clients:%d", connected),
		fmt.Sprintf("blocked_clients:%d", s.acks.Waiting()),
	}}
}

// infoReplication mirrors Redis's Replication section. On a master the
// per-replica lines carry the acknowledged offset and its lag behind
// master_repl_offset; both the baseline (REPLCONF ACK) and SKV (Nic-KV
// status frames) feed the consistency tracker this reads. The section also
// exposes the consistency plane itself: the acked-offset watermark every
// replica has covered, and the write replies currently parked on a quorum.
func (s *Server) infoReplication() store.InfoSection {
	lines := []string{"role:" + s.role.String()}
	if s.role == RoleMaster {
		masterOff := s.ReplOffset()
		ids, offs := s.acks.Replicas()
		lines = append(lines,
			fmt.Sprintf("connected_slaves:%d", len(offs)),
			"master_replid:"+s.replID,
			fmt.Sprintf("master_repl_offset:%d", masterOff),
		)
		for i, off := range offs {
			lag := masterOff - off
			if lag < 0 {
				lag = 0
			}
			// Bulk-sourced offsets (Nic-KV status frames) carry no identities.
			if ids[i] != "" {
				lines = append(lines, fmt.Sprintf("slave%d:addr=%s,offset=%d,lag=%d", i, ids[i], off, lag))
			} else {
				lines = append(lines, fmt.Sprintf("slave%d:offset=%d,lag=%d", i, off, lag))
			}
		}
		lines = append(lines,
			fmt.Sprintf("min_ack_offset:%d", s.acks.MinAckOffset()),
			fmt.Sprintf("parked_writes:%d", s.acks.Parked()),
			"write_consistency:"+s.defLevel.String(),
		)
		return store.InfoSection{Name: "Replication", Lines: lines}
	}
	status := "down"
	if s.SyncedWithMaster() {
		status = "up"
	}
	lines = append(lines,
		"master_link_status:"+status,
		fmt.Sprintf("slave_repl_offset:%d", s.MasterOffset()),
		"slave_read_only:1",
	)
	if s.master != nil && s.master.masterReplID != "" {
		lines = append(lines, "master_replid:"+s.master.masterReplID)
	}
	return store.InfoSection{Name: "Replication", Lines: lines}
}

func (s *Server) infoStats() store.InfoSection {
	return store.InfoSection{Name: "Stats", Lines: []string{
		fmt.Sprintf("total_commands_processed:%d", s.CommandsProcessed()),
		fmt.Sprintf("total_writes_propagated:%d", s.WritesPropagated),
		fmt.Sprintf("err_replies_sent:%d", s.ErrRepliesSent),
		fmt.Sprintf("repl_stream_cmds:%d", s.repl.CmdsAppended.Value()),
		fmt.Sprintf("repl_stream_batches:%d", s.repl.BatchesFlushed()),
		fmt.Sprintf("dirty:%d", s.store.Dirty),
	}}
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}
