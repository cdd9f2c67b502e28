// Package rconn implements SKV's RDMA communication module (paper §III-B)
// as a message-oriented transport.Conn on top of the simulated verbs layer:
//
//   - Connections are established with an RDMA_CM-style handshake, after
//     which the two sides exchange Memory Region information using
//     SEND/RECV.
//   - Application messages travel as WRITE_WITH_IMM into the peer's
//     registered ring buffer, notifying the receiver through its completion
//     event channel (no CQ busy-polling).
//   - "When the receive buffer is full, the MR needs to be registered
//     again. After sending the MR information to the other node with the
//     SEND operation, the previous communication process continues." —
//     reproduced literally: the sender emits RING_FULL when the ring is
//     exhausted and stalls until the receiver re-registers and SENDs fresh
//     MR information.
//   - Receive credits bound the number of outstanding messages to the
//     receiver's posted receive work requests.
//
// Messages larger than the chunk limit are fragmented and reassembled, so
// multi-megabyte RDB payloads from the initial synchronization phase flow
// through the same path.
package rconn

import (
	"encoding/binary"
	"fmt"

	"skv/internal/fabric"
	"skv/internal/rdma"
	"skv/internal/ring"
	"skv/internal/sim"
	"skv/internal/transport"
)

// Tunables for the ring protocol.
const (
	// DefaultRingSize is each side's receive ring MR size.
	DefaultRingSize = 256 << 10
	// RecvBatch is the number of receive WRs posted per refill doorbell.
	RecvBatch = 256
	// MaxChunk is the fragmentation threshold for large messages.
	MaxChunk = 32 << 10
	// frameHeader is the per-chunk header: 1 flag byte.
	frameHeader = 1
	flagLast    = 0x01
	// maxPooledBuf bounds the frame and reassembly buffers a connection
	// keeps for reuse: steady-state messages fit, the chunks of an
	// initial-sync payload do not and are left to the collector.
	maxPooledBuf = 4 << 10
)

// control message types (SEND payload first byte).
const (
	ctrlMRInfo  = 0x01
	ctrlCredit  = 0x02
	ctrlRingFul = 0x03
	ctrlClose   = 0x04
)

// Stack is an RDMA transport instance: one verbs device on one endpoint,
// driven by one process.
type Stack struct {
	net  *fabric.Network
	ep   *fabric.Endpoint
	proc *sim.Proc
	dev  *rdma.Device
	pd   *rdma.PD

	// RingSize lets tests shrink the ring to exercise re-registration.
	RingSize int
}

// mrRegisterCPU is the CPU cost of registering the ring MR (pinning + key
// setup). Charged on each re-registration cycle.
const mrRegisterCPU = 20 * sim.Microsecond

var _ transport.Stack = (*Stack)(nil)

// New creates an RDMA stack bound to ep and proc. It owns the endpoint's
// receive path through its verbs device.
func New(net *fabric.Network, ep *fabric.Endpoint, proc *sim.Proc) *Stack {
	dev := rdma.NewDevice(net, ep, proc.Core)
	s := &Stack{
		net:      net,
		ep:       ep,
		proc:     proc,
		dev:      dev,
		pd:       dev.AllocPD(),
		RingSize: DefaultRingSize,
	}
	return s
}

// Endpoint reports the bound fabric endpoint.
func (s *Stack) Endpoint() *fabric.Endpoint { return s.ep }

// Transport reports "rdma".
func (s *Stack) Transport() string { return "rdma" }

// Device exposes the underlying verbs device (benchmarks use it directly).
func (s *Stack) Device() *rdma.Device { return s.dev }

// Listen accepts connections on port. The accept callback fires once the MR
// exchange completes and the connection can carry messages.
func (s *Stack) Listen(port int, accept func(transport.Conn)) {
	s.dev.Listen(port, func(qp *rdma.QP) {
		c := s.newConn(qp)
		c.onReady = func() { accept(c) }
	})
}

// Dial connects to a listener; cb fires after CM handshake + MR exchange.
func (s *Stack) Dial(remote *fabric.Endpoint, port int, cb func(transport.Conn, error)) {
	s.dev.Connect(remote, port, nil, nil, func(qp *rdma.QP, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		c := s.newConn(qp)
		c.onReady = func() { cb(c, nil) }
	})
}

// conn is one established RDMA connection endpoint.
type conn struct {
	stack *Stack
	qp    *rdma.QP

	// proc, when non-nil, overrides the stack's process for completion
	// delivery and this connection's CPU accounting
	// (transport.ProcAssignable): CQ drains post here, and the QP's
	// send/recv work-request costs charge this proc's core.
	proc *sim.Proc

	// Receive side.
	ring        *rdma.MR
	readOff     int
	postedRecvs int
	consumed    int // data messages consumed since last credit return
	reassembly  []byte
	// drain is c.drainCQ, bound once: every completion-channel wake-up posts
	// it to the owner process instead of a fresh closure.
	drain func()

	// Send side (state about the peer's ring).
	remoteKey  uint32
	remoteSize int
	writeOff   int
	msgCredit  int
	ringWait   bool // stalled waiting for a fresh MR after RING_FULL
	// pending holds framed copies of the messages Send accepted, in order,
	// until credits and ring space let them be posted; idleFrames holds
	// posted frames' buffers for the next Send.
	pending    ring.Queue[[]byte]
	idleFrames [][]byte

	ready   bool
	onReady func()
	handler func([]byte)
	onClose func()
	closed  bool

	// RingResets counts MR re-registration cycles (tests/ablations).
	RingResets uint64
}

var _ transport.Conn = (*conn)(nil)

func (s *Stack) newConn(qp *rdma.QP) *conn {
	c := &conn{stack: s, qp: qp}
	c.drain = c.drainCQ
	qp.Context = c
	// Retry exhaustion on a dead link (partition, down peer) errors the QP:
	// tear the conn down locally. No ctrlClose — the peer is unreachable and
	// discovers the death through its own retry window or probe timeouts.
	qp.OnFail(func() { c.teardown() })
	qp.RecvCQ.OnNotify(c.onCompletionEvent)
	qp.RecvCQ.RequestNotify()
	// Register the receive ring and announce it. Setup runs on the owner
	// process: registration cost + initial receive posting.
	s.proc.Post(mrRegisterCPU, func() {
		c.ring = s.pd.RegisterMR(s.RingSize)
		c.qp.PostRecvN(0, RecvBatch)
		c.postedRecvs = RecvBatch
		c.sendCtrlMRInfo()
	})
	return c
}

// onCompletionEvent is the completion event channel: hand the batch to the
// owning process. The proc charges its wakeup (comp-channel wake) only when
// idle.
func (c *conn) onCompletionEvent() { c.owner().Post(0, c.drain) }

func (c *conn) sendCtrlMRInfo() {
	buf := make([]byte, 13)
	buf[0] = ctrlMRInfo
	binary.BigEndian.PutUint32(buf[1:], c.ring.RKey())
	binary.BigEndian.PutUint32(buf[5:], uint32(c.ring.Len()))
	binary.BigEndian.PutUint32(buf[9:], uint32(RecvBatch-8)) // reserve for control
	_ = c.qp.PostSend(rdma.SendWR{Op: rdma.OpSend, Data: buf})
}

func (c *conn) sendCtrl(b []byte) {
	_ = c.qp.PostSend(rdma.SendWR{Op: rdma.OpSend, Data: b})
}

// drainCQ harvests completions on the owner process, charging completion
// costs, then re-arms the event channel.
func (c *conn) drainCQ() {
	wcs := c.qp.RecvCQ.ChargePoll(c.owner().Core)
	for _, wc := range wcs {
		c.postedRecvs--
		switch {
		case wc.Op == rdma.OpRecv && wc.ImmValid:
			c.handleData(int(wc.Imm))
		case wc.Op == rdma.OpRecv && len(wc.Data) > 0:
			c.handleCtrl(wc.Data)
		}
	}
	c.maybeRefillRecvs()
	if !c.closed {
		c.qp.RecvCQ.RequestNotify()
	}
}

func (c *conn) maybeRefillRecvs() {
	if c.closed || c.postedRecvs >= RecvBatch/2 {
		return
	}
	n := RecvBatch - c.postedRecvs
	c.qp.PostRecvN(0, n)
	c.postedRecvs += n
	if c.consumed > 0 {
		buf := make([]byte, 5)
		buf[0] = ctrlCredit
		binary.BigEndian.PutUint32(buf[1:], uint32(c.consumed))
		c.consumed = 0
		c.sendCtrl(buf)
	}
}

// handleData consumes one frame of frameLen bytes from the ring at readOff.
func (c *conn) handleData(frameLen int) {
	if c.ring == nil || frameLen < frameHeader || c.readOff+frameLen > c.ring.Len() {
		return // corrupt frame; a real stack would tear the QP down
	}
	frame := c.ring.Bytes()[c.readOff : c.readOff+frameLen]
	c.readOff += frameLen
	c.consumed++
	last := frame[0]&flagLast != 0
	msg := frame[frameHeader:]
	if len(c.reassembly) > 0 || !last {
		c.reassembly = append(c.reassembly, msg...)
		msg = c.reassembly
	}
	if !last {
		return
	}
	// The handler borrows msg — the ring itself for a single-frame message,
	// the reassembly buffer otherwise — until it returns (transport.Conn).
	if c.handler != nil && !c.closed {
		c.handler(msg)
	}
	if cap(c.reassembly) > maxPooledBuf {
		c.reassembly = nil
	}
	c.reassembly = c.reassembly[:0]
}

func (c *conn) handleCtrl(b []byte) {
	switch b[0] {
	case ctrlMRInfo:
		c.remoteKey = binary.BigEndian.Uint32(b[1:])
		c.remoteSize = int(binary.BigEndian.Uint32(b[5:]))
		c.msgCredit += int(binary.BigEndian.Uint32(b[9:]))
		c.writeOff = 0
		c.ringWait = false
		if !c.ready {
			c.ready = true
			if c.onReady != nil {
				c.onReady()
			}
		}
		c.flushPending()
	case ctrlCredit:
		c.msgCredit += int(binary.BigEndian.Uint32(b[1:]))
		c.flushPending()
	case ctrlRingFul:
		// Peer exhausted our ring: everything in it has been delivered
		// (in-order channel) and consumed (handlers only borrow), so
		// re-register the same bytes under a fresh key and announce it.
		c.RingResets++
		c.owner().Core.Charge(mrRegisterCPU)
		c.ring.Reregister()
		c.readOff = 0
		c.sendCtrlMRInfo()
	case ctrlClose:
		c.teardown()
	}
}

// Send transmits one application message, fragmenting as needed. The payload
// is copied into frames before Send returns; the caller keeps its buffer.
func (c *conn) Send(payload []byte) {
	if c.closed {
		return
	}
	// Fragment into frames.
	for off := 0; ; {
		n := len(payload) - off
		last := true
		if n > MaxChunk {
			n = MaxChunk
			last = false
		}
		var frame []byte
		if k := len(c.idleFrames); k > 0 {
			frame = c.idleFrames[k-1][:0]
			c.idleFrames = c.idleFrames[:k-1]
		}
		var flags byte
		if last {
			flags = flagLast
		}
		frame = append(frame, flags)
		c.pending.Push(append(frame, payload[off:off+n]...))
		off += n
		if last {
			break
		}
	}
	c.flushPending()
}

// flushPending posts as many queued frames as credits and ring space allow.
func (c *conn) flushPending() {
	if !c.ready || c.closed {
		return
	}
	for c.pending.Len() > 0 && c.msgCredit > 0 && !c.ringWait && !c.closed {
		frame := c.pending.Peek()
		if c.writeOff+len(frame) > c.remoteSize {
			// Paper §III-B: receive buffer full → ask the peer to
			// re-register its MR, stall until fresh MR info arrives.
			c.ringWait = true
			c.sendCtrl([]byte{ctrlRingFul})
			return
		}
		c.pending.Pop()
		c.msgCredit--
		_ = c.qp.PostSend(rdma.SendWR{
			Op:        rdma.OpWriteImm,
			Data:      frame,
			RemoteKey: c.remoteKey,
			RemoteOff: c.writeOff,
			Imm:       uint32(len(frame)),
		})
		c.writeOff += len(frame)
		// PostSend copied the frame onto the wire; its buffer is free again.
		if cap(frame) <= maxPooledBuf {
			c.idleFrames = append(c.idleFrames, frame)
		}
	}
}

func (c *conn) SetHandler(fn func([]byte)) { c.handler = fn }
func (c *conn) SetCloseHandler(fn func())  { c.onClose = fn }

// CoreAssignable is implemented by connections whose send-side CPU
// accounting can be pinned to a specific core (Nic-KV's multi-threaded
// replication pins each slave connection to an ARM core).
type CoreAssignable interface {
	AssignSendCore(*sim.Core)
}

// AssignSendCore pins this connection's send-queue posts to the given core.
func (c *conn) AssignSendCore(core *sim.Core) { c.qp.SetSendCore(core) }

var _ transport.ProcAssignable = (*conn)(nil)

// owner is the process that drains this connection's completions and pays
// its verbs CPU costs: the assigned proc, or the stack's by default.
func (c *conn) owner() *sim.Proc {
	if c.proc != nil {
		return c.proc
	}
	return c.stack.proc
}

// AssignProc moves completion delivery and the QP's work-request cost
// accounting (send posts, receive-ring refills, CQ polls) to p
// (transport.ProcAssignable). Deliveries already posted stay where they are.
func (c *conn) AssignProc(p *sim.Proc) {
	c.proc = p
	c.qp.SetSendCore(p.Core)
	c.qp.SetRecvCore(p.Core)
}

// Close notifies the peer and tears the QP down.
func (c *conn) Close() {
	if c.closed {
		return
	}
	c.sendCtrl([]byte{ctrlClose})
	c.teardown()
}

func (c *conn) teardown() {
	if c.closed {
		return
	}
	c.closed = true
	c.qp.Close()
	if c.ring != nil {
		c.ring.Deregister()
	}
	c.pending.Reset()
	c.idleFrames = nil
	if c.onClose != nil {
		c.onClose()
	}
}

func (c *conn) Closed() bool { return c.closed }

func (c *conn) LocalAddr() string {
	return fmt.Sprintf("%s:qp%d", c.stack.ep.Name(), c.qp.QPN())
}

func (c *conn) RemoteAddr() string {
	if ep := c.qp.RemoteEndpoint(); ep != nil {
		return ep.Name()
	}
	return "?"
}

func (c *conn) Transport() string { return "rdma" }
