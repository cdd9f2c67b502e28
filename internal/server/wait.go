package server

import (
	"fmt"
	"strconv"
	"strings"

	"skv/internal/consistency"
	"skv/internal/resp"
	"skv/internal/sim"
)

// WAIT numreplicas timeout-ms — block the issuing client until at least
// numreplicas replicas have acknowledged all writes issued before WAIT, or
// the timeout fires; reply with the number of replicas that did. The reply
// is deferred (the server keeps serving other clients), matching Redis
// semantics. timeout=0 blocks indefinitely (no timer is armed).
//
// The replica-progress source is the consistency tracker: the baseline
// master pushes its slaves' REPLCONF ACK offsets into it, the SKV master
// pushes the per-slave offsets Nic-KV reports in its status frames.

func (s *Server) cmdWait(c *client, argv [][]byte) {
	if len(argv) != 3 {
		s.reply(c, resp.AppendError(nil, "ERR wrong number of arguments for 'wait' command"))
		return
	}
	need, err1 := strconv.Atoi(string(argv[1]))
	timeoutMs, err2 := strconv.ParseInt(string(argv[2]), 10, 64)
	if err1 != nil || err2 != nil || need < 0 || timeoutMs < 0 {
		s.reply(c, resp.AppendError(nil, "ERR value is not an integer or out of range"))
		return
	}
	if s.role == RoleSlave {
		s.reply(c, resp.AppendError(nil, "ERR WAIT cannot be used with replica instances"))
		return
	}
	// Per-caller target (Redis client->woff): block until the offsets of
	// *this client's* preceding writes are acked, not until the global
	// replication offset is covered. A client that never wrote has target 0
	// and returns immediately with the replica count.
	target := s.acks.LastWrite(c.id)
	if s.acks.AckedAt(target) >= need {
		s.reply(c, resp.AppendInt(nil, int64(s.acks.AckedAt(target))))
		return
	}
	w := &consistency.Waiter{Target: target, Need: need, Owner: c.id}
	w.Fire = func(acked int) {
		// The deferred reply charges its build explicitly, then s.reply
		// charges the send.
		s.coreFor(c).Charge(s.params.ReplyBuildCPU)
		s.reply(c, resp.AppendInt(nil, int64(acked)))
	}
	if timeoutMs > 0 {
		timer := s.eng.After(sim.Duration(timeoutMs)*sim.Millisecond, func() {
			if w.Done() || !s.alive {
				return
			}
			s.acks.FinishNow(w)
		})
		w.Stop = timer.Cancel
	}
	s.acks.Park(w)
}

// SKV.CONSISTENCY [level [W]] — inspect or override this connection's write
// consistency. With no arguments it reports the effective level; "default"
// drops the override; "async"/"quorum [W]"/"all" set one. The override is
// admission-ordered: it applies to every later command on the connection and
// to none before it, at every pipeline shape.
func (s *Server) cmdConsistency(c *client, argv [][]byte) {
	switch len(argv) {
	case 1:
		lvl, w := s.levelFor(c)
		if lvl == consistency.Quorum {
			s.reply(c, resp.AppendBulkString(nil, fmt.Sprintf("%s %d", lvl, effW(w))))
			return
		}
		s.reply(c, resp.AppendBulkString(nil, lvl.String()))
	case 2, 3:
		name := string(argv[1])
		if len(argv) == 2 && strings.EqualFold(name, "default") {
			c.consOv = false
			s.reply(c, resp.AppendSimple(nil, "OK"))
			return
		}
		lvl, ok := consistency.ParseLevel(name)
		if !ok {
			s.reply(c, resp.AppendError(nil, "ERR unknown consistency level '"+name+"'"))
			return
		}
		w := s.defW
		if len(argv) == 3 {
			if lvl != consistency.Quorum {
				s.reply(c, resp.AppendError(nil, "ERR a replica count only applies to quorum"))
				return
			}
			n, err := strconv.Atoi(string(argv[2]))
			if err != nil || n < 1 {
				s.reply(c, resp.AppendError(nil, "ERR value is not an integer or out of range"))
				return
			}
			w = n
		}
		c.consOv, c.consLevel, c.consW = true, lvl, w
		s.reply(c, resp.AppendSimple(nil, "OK"))
	default:
		s.reply(c, resp.AppendError(nil, "ERR wrong number of arguments for 'skv.consistency' command"))
	}
}

// effW clamps a configured quorum width to its effective minimum.
func effW(w int) int {
	if w < 1 {
		return 1
	}
	return w
}
