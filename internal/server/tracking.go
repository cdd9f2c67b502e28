// Client-side caching support (CLIENT TRACKING): per-connection key
// interest, recorded at command admission, and push-style invalidation on
// every dirty write (commit calls the table's Invalidate). Two modes:
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
// The grammar, the re-negotiation rule and the table are the tracking
// package's; this file only arms the host's push channels. Connections that
// never issue CLIENT TRACKING pay nothing: every hook is gated on per-client
// state or table emptiness.
package server

import (
	"strconv"

	"skv/internal/resp"
	"skv/internal/store"
	"skv/internal/tracking"
)

// TrackingLen reports the number of distinct keys in the server's in-band
// interest table (0 when no client ever turned tracking on).
func (s *Server) TrackingLen() int { return s.track.Len() }

// TrackingSubscribers reports how many connections hold in-band interest.
func (s *Server) TrackingSubscribers() int { return s.track.Subscribers() }

// cmdClient handles the CLIENT command. An in-band subscriber is named after
// its connection id; its push channel is the data connection itself.
func (s *Server) cmdClient(c *client, argv [][]byte) {
	redirect := tracking.IgnoreRedirect
	if s.OnTrackInterest != nil {
		redirect = tracking.ForwardRedirect
	}
	s.reply(c, c.track.Command(argv, "#"+strconv.FormatUint(c.id, 10), redirect, func() {
		if s.track == nil {
			s.track = tracking.New(0)
		}
		s.track.Arm(c.track.Name, func(key string) {
			if c.closed {
				return
			}
			s.coreFor(c).Charge(s.params.ReplyBuildCPU)
			c.conn.Send(resp.AppendInvalidatePush(nil, []byte(key)))
		})
	}, s.untrack))
}

// untrack forgets every interest a connection held (CLIENT TRACKING OFF or
// disconnect) in whichever table holds it. Without this, churning
// subscribers would leave the interest tables permanently populated.
func (s *Server) untrack(t tracking.Conn) {
	if t.Redirect {
		s.OnTrackDrop(t.Name)
		return
	}
	s.track.DropSub(t.Name)
}

// recordInterest registers c's interest in every key a tracked read
// touches. Runs at admission (after the slot check) so the interest exists
// before the read is even routed — with shard cores an invalidation for a
// concurrently-merging write can therefore arrive before the read's reply,
// which the client side handles by poisoning the in-flight read.
func (s *Server) recordInterest(c *client, cmd *store.Command, argv [][]byte) {
	s.coreFor(c).Charge(s.params.TrackInterestCPU)
	cmd.EachKey(argv, func(key []byte) {
		if c.track.Redirect {
			s.OnTrackInterest(c.track.Name, string(key))
		} else {
			s.track.Add(string(key), c.track.Name)
		}
	})
}
