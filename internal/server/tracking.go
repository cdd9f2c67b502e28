// Client-side caching support (CLIENT TRACKING): per-connection key
// interest, recorded at command admission, and push-style invalidation on
// every dirty write. Two modes:
//
//   - In-band (CLIENT TRACKING ON): interest lands in the server's own
//     bounded table and invalidation pushes ride the client's data
//     connection as RESP3 push frames. This is the baseline path — and the
//     self-healing fallback a promoted SKV slave uses before its Nic-KV
//     wiring exists.
//   - Redirect (CLIENT TRACKING ON REDIRECT <name>): the server only
//     forwards interest to the offload layer (Host-KV → Nic-KV) via
//     OnTrackInterest; the NIC owns the table and pushes invalidations on
//     its own subscription channel, costing zero host dispatch cycles.
//     Honored only when an offload layer wired OnTrackInterest.
//
// Connections that never issue CLIENT TRACKING pay nothing: every hook
// below is gated on per-client flags or table emptiness.
package server

import (
	"strings"

	"skv/internal/resp"
	"skv/internal/store"
	"skv/internal/tracking"
)

// TrackingLen reports the number of distinct keys in the server's in-band
// interest table (0 when no client ever turned tracking on).
func (s *Server) TrackingLen() int {
	if s.track == nil {
		return 0
	}
	return s.track.Len()
}

// TrackingSubscribers reports how many connections hold in-band interest.
func (s *Server) TrackingSubscribers() int {
	if s.track == nil {
		return 0
	}
	return s.track.Subscribers()
}

// cmdClient handles the CLIENT command (only the TRACKING subcommand is
// modeled). "CLIENT TRACKING ON [REDIRECT <name>]" / "CLIENT TRACKING OFF".
func (s *Server) cmdClient(c *client, argv [][]byte) {
	if len(argv) < 3 || !strings.EqualFold(string(argv[1]), "tracking") {
		s.reply(c, resp.AppendError(nil, "ERR unknown CLIENT subcommand"))
		return
	}
	switch strings.ToLower(string(argv[2])) {
	case "on":
		redirect := ""
		if len(argv) == 5 && strings.EqualFold(string(argv[3]), "redirect") {
			redirect = string(argv[4])
		} else if len(argv) != 3 {
			s.reply(c, resp.AppendError(nil, "ERR syntax error in CLIENT TRACKING"))
			return
		}
		s.dropTracking(c) // re-negotiation resets prior state
		c.trackOn = true
		if redirect != "" && s.OnTrackInterest != nil {
			// Offloaded mode: the NIC owns the table, keyed by the client's
			// chosen subscription name.
			c.trackRedirect = true
			c.trackName = redirect
		} else {
			// In-band mode (or no offload layer to redirect to): track
			// locally under a synthetic per-connection name.
			c.trackRedirect = false
			c.trackName = "#" + itoa(c.id)
			if s.track == nil {
				s.track = tracking.New(0)
				s.trackLocal = make(map[string]*client)
				s.track.OnEvict = s.pushEvicted
			}
			s.trackLocal[c.trackName] = c
		}
		s.reply(c, resp.AppendSimple(nil, "OK"))
	case "off":
		s.dropTracking(c)
		s.reply(c, resp.AppendSimple(nil, "OK"))
	default:
		s.reply(c, resp.AppendError(nil, "ERR syntax error in CLIENT TRACKING"))
	}
}

// dropTracking forgets every interest held by c (CLIENT TRACKING OFF,
// re-negotiation, or disconnect). Without this, churning subscribers would
// leave the interest tables permanently populated.
func (s *Server) dropTracking(c *client) {
	if !c.trackOn {
		return
	}
	c.trackOn = false
	if c.trackRedirect {
		if s.OnTrackDrop != nil {
			s.OnTrackDrop(c.trackName)
		}
	} else if s.track != nil {
		s.track.DropSub(c.trackName)
		delete(s.trackLocal, c.trackName)
	}
	c.trackRedirect = false
	c.trackName = ""
}

// recordInterest registers c's interest in every key a tracked read
// touches. Runs at admission (after the slot check) so the interest exists
// before the read is even routed — with shard cores an invalidation for a
// concurrently-merging write can therefore arrive before the read's reply,
// which the client side handles by poisoning the in-flight read.
func (s *Server) recordInterest(c *client, cmd *store.Command, argv [][]byte) {
	s.coreFor(c).Charge(s.params.TrackInterestCPU)
	cmd.EachKey(argv, func(key []byte) {
		if c.trackRedirect {
			s.OnTrackInterest(c.trackName, string(key))
		} else {
			s.track.Add(string(key), c.trackName)
		}
	})
}

// pushInvalidations tells every in-band subscriber interested in a dirty
// write's keys that their cached copies are stale. Interest is one-shot.
// Keyless dirty commands (FLUSHDB and friends) invalidate the whole table.
// Called from commit — the merge stage and barrier writes — on the dispatch
// proc; gated on table occupancy so the untracked hot path adds zero work.
func (s *Server) pushInvalidations(cmd *store.Command, argv [][]byte) {
	if s.track == nil || s.track.Len() == 0 {
		return
	}
	if cmd == nil || cmd.FirstKey == 0 {
		for _, e := range s.track.TakeAll() {
			s.pushKeyTo(e.Key, e.Subs)
		}
		return
	}
	cmd.EachKey(argv, func(key []byte) {
		k := string(key)
		if subs := s.track.Take(k); subs != nil {
			s.pushKeyTo(k, subs)
		}
	})
}

// pushEvicted is the table's OnEvict hook: a key squeezed out by the
// bound gets a synthetic invalidation so its subscribers re-fetch rather
// than serve it stale forever.
func (s *Server) pushEvicted(key string, subs []string) {
	s.pushKeyTo(key, subs)
}

// pushKeyTo emits one RESP3 invalidate push frame per live subscriber.
func (s *Server) pushKeyTo(key string, subs []string) {
	for _, name := range subs {
		c := s.trackLocal[name]
		if c == nil || c.closed {
			continue
		}
		s.coreFor(c).Charge(s.params.ReplyBuildCPU)
		c.conn.Send(resp.AppendInvalidatePush(nil, []byte(key)))
	}
}

// itoa is a tiny allocation-light uint formatter for synthetic names.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
