// Deterministic fault injection for the fabric (chaos harness substrate).
//
// The plane models faults the way a reliable-connected transport experiences
// them, so the conn layers above stay coherent:
//
//   - Message loss on a link is transport retransmission: the message is
//     delivered late (a seeded geometric number of retransmit penalties),
//     never silently dropped, because an RC transport retries until acked.
//   - A partition parks messages on the link: if the partition heals before
//     the sender's retry window expires, the parked messages flow (delayed,
//     in order) exactly as retransmitted packets would; if it does not, the
//     sender's transport observes the unacked streak and fails the
//     connection (see Endpoint.OnSendOutcome and rdma/tcpsim).
//   - Partitions are asymmetric: blocking src→dst also withholds
//     transport-level acks for the dst→src direction, so a one-way
//     partition starves both sides' senders, as with real RC/TCP.
//   - Down endpoints (Endpoint.SetDown, also driven by FlapEndpoint) park
//     the same way while a fault plane is installed; bringing the endpoint
//     up flushes. Without a plane, down endpoints hard-drop (legacy).
//
// All randomness comes from one RNG seeded off the engine, and every
// decision is made in event order, so a given seed yields a bit-identical
// fault schedule and event trace.
package fabric

import (
	"math/rand"

	"skv/internal/sim"
)

// linkKey identifies one direction of one link.
type linkKey struct {
	src, dst *Endpoint
}

// linkFault is the fault configuration and parked traffic of one directed
// link.
type linkFault struct {
	partitioned bool

	lossProb    float64      // per-message probability of a "lost" packet
	lossPenalty sim.Duration // retransmit delay charged per loss draw

	extraDelay sim.Duration // fixed added latency
	spikeProb  float64      // per-message probability of a delay spike
	spikeDelay sim.Duration // spike magnitude

	parked []parkedMsg
}

// parkedMsg is a message held on a blocked link awaiting heal (the RC
// retransmission queue, observed from the wire).
type parkedMsg struct {
	msg Message      // Parked is set
	lat sim.Duration // residual one-way latency to apply at flush
}

// Faults is a Network's fault-injection plane. Obtain it with
// Network.Faults(); all methods are safe to call from scheduled events.
type Faults struct {
	net   *Network
	rng   *rand.Rand
	links map[linkKey]*linkFault
}

// Faults returns the network's fault-injection plane, installing it on
// first use. Installing the plane switches down-endpoint handling from
// hard-drop to park-and-flush (reliable-transport retransmission).
func (n *Network) Faults() *Faults {
	if n.faults == nil {
		n.faults = &Faults{
			net:   n,
			rng:   n.eng.NewRand(),
			links: make(map[linkKey]*linkFault),
		}
	}
	return n.faults
}

func (f *Faults) link(src, dst *Endpoint) *linkFault {
	k := linkKey{src, dst}
	lf := f.links[k]
	if lf == nil {
		lf = &linkFault{}
		f.links[k] = lf
	}
	return lf
}

// peek returns the link fault config without creating one.
func (f *Faults) peek(src, dst *Endpoint) *linkFault {
	return f.links[linkKey{src, dst}]
}

// Partition blocks the src→dst direction. Messages sent while blocked are
// parked and delivered (in order) if Heal arrives; senders are notified of
// the unacked sends so their transports can time the connection out.
func (f *Faults) Partition(src, dst *Endpoint) {
	f.link(src, dst).partitioned = true
}

// PartitionBoth blocks both directions between a and b.
func (f *Faults) PartitionBoth(a, b *Endpoint) {
	f.Partition(a, b)
	f.Partition(b, a)
}

// Heal unblocks src→dst and flushes parked messages in send order.
func (f *Faults) Heal(src, dst *Endpoint) {
	lf := f.peek(src, dst)
	if lf == nil || !lf.partitioned {
		return
	}
	lf.partitioned = false
	f.flush(lf)
}

// HealBoth unblocks both directions between a and b.
func (f *Faults) HealBoth(a, b *Endpoint) {
	f.Heal(a, b)
	f.Heal(b, a)
}

// Partitioned reports whether src→dst is currently blocked.
func (f *Faults) Partitioned(src, dst *Endpoint) bool {
	lf := f.peek(src, dst)
	return lf != nil && lf.partitioned
}

// SetLoss configures seeded message loss on src→dst: each message is
// independently "lost" with probability prob; every loss costs penalty of
// retransmission delay (drawn geometrically, so bursts of consecutive
// losses compound). prob 0 disables.
func (f *Faults) SetLoss(src, dst *Endpoint, prob float64, penalty sim.Duration) {
	lf := f.link(src, dst)
	lf.lossProb = prob
	lf.lossPenalty = penalty
}

// SetLossBoth configures loss symmetrically.
func (f *Faults) SetLossBoth(a, b *Endpoint, prob float64, penalty sim.Duration) {
	f.SetLoss(a, b, prob, penalty)
	f.SetLoss(b, a, prob, penalty)
}

// SetDelay adds a fixed extra latency to src→dst plus seeded delay spikes:
// each message suffers spike with probability spikeProb.
func (f *Faults) SetDelay(src, dst *Endpoint, extra sim.Duration, spikeProb float64, spike sim.Duration) {
	lf := f.link(src, dst)
	lf.extraDelay = extra
	lf.spikeProb = spikeProb
	lf.spikeDelay = spike
}

// Clear removes all fault configuration from src→dst (flushing anything
// parked there).
func (f *Faults) Clear(src, dst *Endpoint) {
	lf := f.peek(src, dst)
	if lf == nil {
		return
	}
	wasPartitioned := lf.partitioned
	*lf = linkFault{parked: lf.parked}
	if wasPartitioned {
		f.flush(lf)
	}
	lf.parked = nil
}

// FlapEndpoint schedules cycles of endpoint flapping: down for downFor,
// then up for upFor, repeated cycles times, starting one downFor-free
// period from now... the first transition to down happens immediately.
func (f *Faults) FlapEndpoint(ep *Endpoint, downFor, upFor sim.Duration, cycles int) {
	eng := f.net.eng
	var at sim.Duration
	for i := 0; i < cycles; i++ {
		eng.After(at, func() { ep.SetDown(true) })
		eng.After(at+downFor, func() { ep.SetDown(false) })
		at += downFor + upFor
	}
}

// blocked reports whether a message src→dst must be parked right now.
func (f *Faults) blocked(src, dst *Endpoint) bool {
	if src.down || dst.down {
		return true
	}
	lf := f.peek(src, dst)
	return lf != nil && lf.partitioned
}

// send routes one message through the fault plane: park if the link is
// blocked, otherwise perturb latency per the link's loss/delay config and
// hand off to normal delivery.
func (f *Faults) send(m Message, lat sim.Duration) {
	n := f.net
	src, dst := m.Src, m.Dst
	if f.blocked(src, dst) {
		m.Parked = true
		lf := f.link(src, dst)
		lf.parked = append(lf.parked, parkedMsg{msg: m, lat: lat})
		n.Parked.Inc()
		// The sender's transport sees the ack timeout one latency later.
		n.eng.After(lat, func() { notifyOutcome(src, m, false) })
		return
	}
	if lf := f.peek(src, dst); lf != nil {
		lat += lf.extraDelay
		if lf.lossProb > 0 {
			for f.rng.Float64() < lf.lossProb {
				lat += lf.lossPenalty
				n.Retransmits.Inc()
			}
		}
		if lf.spikeProb > 0 && f.rng.Float64() < lf.spikeProb {
			lat += lf.spikeDelay
			n.Spikes.Inc()
		}
	}
	n.deliverAfter(m, lat)
}

// flush re-injects parked messages after a heal, preserving send order via
// the network's per-link FIFO arrival clamp.
func (f *Faults) flush(lf *linkFault) {
	parked := lf.parked
	lf.parked = nil
	for _, pm := range parked {
		if f.blocked(pm.msg.Src, pm.msg.Dst) {
			// Re-partitioned (or endpoint still down) before the flush
			// drained: park again.
			lf2 := f.link(pm.msg.Src, pm.msg.Dst)
			lf2.parked = append(lf2.parked, pm)
			continue
		}
		f.net.deliverAfter(pm.msg, pm.lat)
	}
}

// flushEndpoint releases everything parked because ep was down (called on
// SetDown(false)).
func (f *Faults) flushEndpoint(ep *Endpoint) {
	for k, lf := range f.links {
		if (k.src == ep || k.dst == ep) && len(lf.parked) > 0 && !lf.partitioned {
			f.flush(lf)
		}
	}
}
