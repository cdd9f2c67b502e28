// Package core implements SKV itself (paper §III–§IV): the split of the
// distributed key-value store across the host and the off-path SmartNIC.
//
//   - HostKV (hostkv.go) runs on the master host: it executes commands,
//     stores all key-value pairs (§IV-A: data stays in host memory), and for
//     every write posts a single replication request to the SmartNIC instead
//     of feeding each slave itself.
//   - NicKV (nickv.go) runs on the SmartNIC ARM cores: it maintains the
//     node list, fans replicated commands out to all slaves
//     (WRITE_WITH_IMM through internal/rconn), handles the initial
//     synchronization handshake, probes node liveness every second, and
//     performs failover (§III-D).
//   - SlaveAgent (slaveagent.go) runs on each slave host: it initiates
//     synchronization through the SmartNIC, receives the initial payload
//     directly from the master, applies the steady-state command stream
//     from Nic-KV, and answers probes.
//
// All control and replication traffic uses a compact binary framing over
// the RDMA message transport; offsets in the stream frames let slaves
// deduplicate the overlap between the initial payload and the live stream
// and detect gaps after crashes (triggering automatic resynchronization).
package core

import (
	"encoding/binary"

	"skv/internal/consistency"
	"skv/internal/replstream"
	"skv/internal/sim"
)

// Well-known ports in an SKV deployment.
const (
	// ClientPort is where Host-KV serves clients.
	ClientPort = 6379
	// ReplPort is where a slave's Host-KV accepts the initial-sync payload
	// connection from the master.
	ReplPort = 6380
	// NicPort is where Nic-KV listens (on the SmartNIC endpoint).
	NicPort = 7000
)

// Message tags (first byte of every SKV frame).
const (
	msgMasterHello    = 'M' // master → NIC: identifies the master connection
	msgInitSync       = 'I' // slave → NIC: id, last master replID, offset
	msgNewSlave       = 'N' // NIC → master: id, replID, offset
	msgOffload        = 'Q' // master → NIC: startOff, {gate, cmd count}, concatenated commands (one replication request; a non-zero gate holds the batch's gated replies until that many slaves reach its end)
	msgCmdStream      = 'C' // NIC → slave: startOff, encoded command(s)
	msgProbe          = 'P' // NIC → any node
	msgProbeAck       = 'A' // node → NIC
	msgPayloadRDB     = 'Y' // master → slave: replID, baseOff, RDB bytes
	msgPayloadBacklog = 'B' // master → slave: replID, startOff, stream bytes
	msgProgress       = 'G' // slave → NIC: replication offset
	msgStatus         = 'S' // NIC → master: valid slave count, min offset
	msgPromote        = 'F' // NIC → slave: become master (failover)
	msgDemote         = 'D' // NIC → node: resume slave role
	msgAckRelease     = 'K' // NIC → master: released watermark (every gated reply ≤ it may fire)
	msgCmdStreamAck   = 'c' // NIC → slave: like msgCmdStream, sent while a gate is pending: report progress once applied
	msgTrackHello     = 'T' // subscriber → NIC: name — register an invalidation push channel (echoed back as the ack)
	msgTrackKey       = 't' // master → NIC: name, key (32-bit length) — record one subscriber's interest in one key
	msgTrackDrop      = 'x' // master → NIC: name — drop every interest of one subscriber
	msgInvalidate     = 'V' // NIC → subscriber: key (32-bit length) — a tracked key changed; drop the cached copy
)

// ---- tracking-plane subscriber codec ----
//
// The workload clients speak these two frames directly: a tracking client
// subscribes on the Nic-KV port with a hello and then consumes invalidation
// pushes. (The master→NIC interest frames stay internal to this package.)

// EncodeTrackHello frames the subscription hello; Nic-KV echoes the bare
// tag back as the acknowledgment that the push channel is armed.
func EncodeTrackHello(name string) []byte {
	return appendStr([]byte{msgTrackHello}, name)
}

// ParseSubscriberFrames walks a NIC→subscriber byte sequence — frames are
// self-delimiting, so coalesced deliveries parse too — invoking onAck for
// each hello acknowledgment and onKey for each invalidated key. Returns
// false on malformed input.
func ParseSubscriberFrames(b []byte, onAck func(), onKey func(key string)) bool {
	for len(b) > 0 {
		switch b[0] {
		case msgTrackHello:
			b = b[1:]
			onAck()
		case msgInvalidate:
			r := &frameReader{b: b[1:]}
			k := r.key()
			if r.bad {
				return false
			}
			b = r.rest()
			onKey(k)
		default:
			return false
		}
	}
	return true
}

// ---- frame encoding helpers ----

func appendU64(dst []byte, v uint64) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], v)
	return append(dst, tmp[:]...)
}

func appendStr(dst []byte, s string) []byte {
	var tmp [2]byte
	binary.BigEndian.PutUint16(tmp[:], uint16(len(s)))
	dst = append(dst, tmp[:]...)
	return append(dst, s...)
}

// appendKey frames a client-chosen key. Keys can exceed appendStr's 16-bit
// length (a wrapped length would record interest, or push an invalidation,
// under a different key and leave the real one cached stale), so they carry
// a 32-bit one.
func appendKey(dst []byte, key string) []byte {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], uint32(len(key)))
	dst = append(dst, tmp[:]...)
	return append(dst, key...)
}

// appendOffload frames one replication request onto dst: the stream offset
// the commands start at, the gate on the batch's replies and how many
// commands there are — one word, gate in the high half, so an ungated
// request is the bytes it was before gates rode here — and the concatenated
// RESP bytes. This runs once per flushed batch on the master's hot path, so
// dst is the sender's scratch frame (Send copies).
func appendOffload(dst []byte, start int64, gate replstream.Gate, cmds int, data []byte) []byte {
	dst = append(dst, msgOffload)
	dst = appendU64(dst, uint64(start))
	dst = appendU64(dst, uint64(gate)<<32|uint64(uint32(cmds)))
	return append(dst, data...)
}

// appendStream frames one chunk of the replication stream onto dst: tag
// (msgCmdStream or msgCmdStreamAck), the stream offset the chunk starts at,
// and the command bytes.
func appendStream(dst []byte, tag byte, off int64, cmd []byte) []byte {
	dst = append(dst, tag)
	dst = appendU64(dst, uint64(off))
	return append(dst, cmd...)
}

// frameReader decodes a received frame.
type frameReader struct {
	b   []byte
	pos int
	bad bool
}

// take consumes the next n bytes; it flags the frame bad, for good, when
// fewer remain.
func (r *frameReader) take(n int) []byte {
	if r.bad || n < 0 || n > len(r.b)-r.pos {
		r.bad = true
		return nil
	}
	r.pos += n
	return r.b[r.pos-n : r.pos]
}

func (r *frameReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *frameReader) i64() int64 { return int64(r.u64()) }

func (r *frameReader) str() string {
	if b := r.take(2); b != nil {
		return string(r.take(int(binary.BigEndian.Uint16(b))))
	}
	return ""
}

func (r *frameReader) key() string {
	if b := r.take(4); b != nil {
		return string(r.take(int(binary.BigEndian.Uint32(b))))
	}
	return ""
}

// offload decodes a msgOffload body. A request carrying no command, cut
// short inside its header, gated by a word with reserved bits set, or whose
// bytes start or end below stream offset zero (a gate ending there would be
// satisfied by every slave and release nothing), is malformed.
func (r *frameReader) offload() (start int64, gate replstream.Gate, cmds int, data []byte, ok bool) {
	start = r.i64()
	word := r.u64()
	gate, count := replstream.Gate(word>>32), word&(1<<32-1)
	payload := len(r.b) - r.pos
	if r.bad || start < 0 || start+int64(payload) < 0 || count == 0 || count > uint64(payload) || !gate.WellFormed() {
		return 0, 0, 0, nil, false
	}
	return start, gate, int(count), r.rest(), true
}

// status decodes a msgStatus body, laid out exactly as statusFrame writes
// it: slave count, slowest offset, that many offsets, effective thread
// count. The slave count comes off the wire, so it is bounded by the words
// the frame actually holds before anything is sized with it. A frame with
// a word missing or left over, a negative slowest offset or a thread count
// below one is malformed.
func (r *frameReader) status() (offs []int64, minOff int64, threads int, ok bool) {
	count := r.u64()
	minOff = r.i64()
	if r.bad || minOff < 0 || len(r.b)-r.pos < 8 || count != uint64(len(r.b)-r.pos-8)/8 {
		return nil, 0, 0, false
	}
	offs = make([]int64, count)
	for i := range offs {
		offs[i] = r.i64()
	}
	if threads = int(r.i64()); r.pos != len(r.b) || threads < 1 {
		return nil, 0, 0, false
	}
	return offs, minOff, threads, true
}

func (r *frameReader) rest() []byte {
	if r.bad {
		return nil
	}
	return r.b[r.pos:]
}

// Config carries the SKV-specific tunables the paper names.
type Config struct {
	// MinSlaves: with fewer available slaves, writes fail (§III-D).
	MinSlaves int
	// MaxLag: when the slowest valid slave is more than this many stream
	// bytes behind, writes fail ("if the progress is too slow ... it will
	// return an error message to the client", §III-C). 0 disables.
	MaxLag int64
	// ThreadNum is the number of SmartNIC cores used for replication
	// (§III-C thread-num; the default 1 disables multi-threading, as in the
	// paper). NewNicKV clamps it to [1, model.Params.NICCores].
	ThreadNum int
	// ProgressInterval is how often slaves report replication progress to
	// Nic-KV (§III-C step ③).
	ProgressInterval sim.Duration
	// ServeReadsFromNIC enables the design §IV-A rejects: Nic-KV keeps a
	// shadow replica and serves read commands from the SmartNIC. Derived
	// from cluster.Config.NicReads when building through the cluster
	// package — set it directly only when wiring core components by hand.
	ServeReadsFromNIC bool
	// Group labels this SKV unit's replication group in a multi-master
	// deployment (e.g. "g1"): per-slave lag gauges become
	// nickv.lag.<group>.<id> and the failover timeline's master label
	// becomes <group>.master, so snapshots from N groups never collide.
	// Empty (a single-group deployment) leaves the names unqualified.
	Group string
	// WriteConsistency selects the cluster's write acknowledgment level.
	// Nic-KV consults it for the failover policy: quorum/all promote the
	// valid slave with the highest reported offset, so every released write
	// survives the master's crash; async — the zero value — keeps the legacy
	// first-valid-node promotion. (Gates themselves arrive per batch, in the
	// replication request.)
	WriteConsistency consistency.Level
}

// DefaultConfig mirrors the paper's default deployment.
func DefaultConfig() Config {
	return Config{
		MinSlaves:        0,
		MaxLag:           0,
		ThreadNum:        1,
		ProgressInterval: 500 * sim.Millisecond,
	}
}
