// Package tcpsim models the kernel TCP/IP path Redis uses by default. It is
// deliberately unflattering in exactly the ways the paper describes (§III-B):
// every message pays syscall + protocol-processing + copy CPU on both
// endpoints, plus kernel-stack traversal latency, and the receiving process
// pays an epoll wakeup on every idle→busy transition.
//
// The resulting single-core service time (~7–8µs per small SET) caps the
// original-Redis baseline near the paper's measured ≈130 kops/s (Fig 10a)
// while leaving unloaded round-trip latency in the tens of microseconds.
package tcpsim

import (
	"fmt"

	"skv/internal/fabric"
	"skv/internal/sim"
	"skv/internal/transport"
)

// Stack is a TCP endpoint instance bound to one fabric endpoint and one
// single-threaded process.
type Stack struct {
	net  *fabric.Network
	ep   *fabric.Endpoint
	proc *sim.Proc

	listeners map[int]func(transport.Conn)
	conns     map[uint64]*conn
	nextID    uint64
	dials     map[uint64]func(transport.Conn, error)

	// idleSegs and idleRx hold the stack's segment and receive records not
	// in use; they grow to the peak number in flight at once.
	idleSegs []*segment
	idleRx   []*rxTask
}

type segKind int

const (
	segSYN segKind = iota
	segSYNACK
	segRST
	segDATA
	segFIN
)

// segment is the fabric payload for the TCP model. Segments travel as
// *segment records owned by the sending stack (Stack.segment / sendOutcome);
// the receiving stack reads one only during the delivery.
type segment struct {
	kind    segKind
	port    int
	srcConn uint64
	dstConn uint64
	data    []byte
}

// rxTask is one received data segment waiting for its process: the record
// the stack posts instead of a closure per message. run is t.deliver, bound
// when the record is first created.
type rxTask struct {
	conn *conn
	data []byte
	run  func()
}

// maxPooledData bounds the payload buffer an idle record keeps: steady-state
// messages fit, an initial-sync payload does not and is left to the
// collector.
const maxPooledData = 4 << 10

// segment takes a cleared record off the idle list; its data is an empty
// buffer to append the payload to.
func (s *Stack) segment() *segment {
	var seg *segment
	if n := len(s.idleSegs); n > 0 {
		seg = s.idleSegs[n-1]
		s.idleSegs = s.idleSegs[:n-1]
	} else {
		seg = new(segment)
	}
	*seg = segment{data: seg.data[:0]}
	return seg
}

func (s *Stack) rxTask() *rxTask {
	if n := len(s.idleRx); n > 0 {
		t := s.idleRx[n-1]
		s.idleRx = s.idleRx[:n-1]
		return t
	}
	t := new(rxTask)
	t.run = t.deliver
	return t
}

// deliver hands the segment's bytes to the connection's handler, which
// borrows them until it returns (transport.Conn).
func (t *rxTask) deliver() {
	c := t.conn
	if c.handler != nil && !c.closed {
		c.handler(t.data)
	}
	t.conn = nil
	if cap(t.data) > maxPooledData {
		t.data = nil
	}
	c.stack.idleRx = append(c.stack.idleRx, t)
}

// New creates a TCP stack on the endpoint, delivering to proc. The stack
// takes ownership of the endpoint's receive handler.
func New(net *fabric.Network, ep *fabric.Endpoint, proc *sim.Proc) *Stack {
	s := &Stack{
		net:       net,
		ep:        ep,
		proc:      proc,
		listeners: make(map[int]func(transport.Conn)),
		conns:     make(map[uint64]*conn),
		dials:     make(map[uint64]func(transport.Conn, error)),
	}
	ep.Handle(s.recv)
	ep.OnSendOutcome(s.sendOutcome)
	return s
}

// sendOutcome watches the fate of this stack's segments on the fabric. A
// streak of unacked sends (partitioned or down peer) spanning the TCP retry
// window errors the connection out locally, like RTO escalation ending in
// ETIMEDOUT.
func (s *Stack) sendOutcome(m fabric.Message, acked bool) {
	seg, ok := m.Payload.(*segment)
	if !ok {
		return
	}
	if c := s.conns[seg.srcConn]; c != nil && !c.closed {
		c.sendOutcome(acked)
	}
	if !m.Parked {
		if cap(seg.data) > maxPooledData {
			seg.data = nil
		}
		s.idleSegs = append(s.idleSegs, seg)
	}
}

func (c *conn) sendOutcome(acked bool) {
	s := c.stack
	if acked {
		c.unackedSince = -1
		return
	}
	now := s.net.Engine().Now()
	if c.unackedSince < 0 {
		c.unackedSince = now
		return
	}
	if now.Sub(c.unackedSince) >= s.net.Params().RetryTimeout {
		c.closed = true
		delete(s.conns, c.id)
		delete(s.dials, c.id)
		if c.onClose != nil {
			c.owner().Post(s.net.Params().TCPRxCPU, c.onClose)
		}
	}
}

// Endpoint reports the bound fabric endpoint.
func (s *Stack) Endpoint() *fabric.Endpoint { return s.ep }

// Transport reports "tcp".
func (s *Stack) Transport() string { return "tcp" }

// Listen registers an accept callback on port.
func (s *Stack) Listen(port int, accept func(transport.Conn)) {
	if _, dup := s.listeners[port]; dup {
		panic(fmt.Sprintf("tcpsim: %s already listening on %d", s.ep.Name(), port))
	}
	s.listeners[port] = accept
}

// Dial opens a connection to remote:port. The callback fires after the
// handshake (or with an error on RST).
func (s *Stack) Dial(remote *fabric.Endpoint, port int, cb func(transport.Conn, error)) {
	s.nextID++
	id := s.nextID
	c := &conn{stack: s, id: id, peerEP: remote, unackedSince: -1}
	s.conns[id] = c
	s.dials[id] = cb
	s.sendSeg(remote, 64, segment{kind: segSYN, port: port, srcConn: id})
}

// sendSeg pushes a control segment with kernel-stack latency on both sides.
func (s *Stack) sendSeg(dst *fabric.Endpoint, size int, seg segment) {
	q := s.segment()
	seg.data = q.data
	*q = seg
	p := s.net.Params()
	s.net.Send(s.ep, dst, size, q, 2*p.TCPStackLatency)
}

// recv is the endpoint-level delivery path. Control segments are handled by
// the stack; data is charged to the owning process.
func (s *Stack) recv(m fabric.Message) {
	seg, ok := m.Payload.(*segment)
	if !ok {
		return
	}
	p := s.net.Params()
	switch seg.kind {
	case segSYN:
		accept, listening := s.listeners[seg.port]
		if !listening {
			s.sendSeg(m.Src, 64, segment{kind: segRST, dstConn: seg.srcConn})
			return
		}
		s.nextID++
		c := &conn{stack: s, id: s.nextID, peerEP: m.Src, peerConn: seg.srcConn, established: true, unackedSince: -1}
		s.conns[c.id] = c
		s.sendSeg(m.Src, 64, segment{kind: segSYNACK, srcConn: c.id, dstConn: seg.srcConn})
		// Accept runs on the process (accept handler callback in Redis).
		s.proc.Post(p.TCPRxCPU, func() { accept(c) })
	case segSYNACK:
		c := s.conns[seg.dstConn]
		cb := s.dials[seg.dstConn]
		delete(s.dials, seg.dstConn)
		if c == nil || cb == nil {
			return
		}
		c.peerConn = seg.srcConn
		c.established = true
		s.proc.Post(p.TCPRxCPU, func() { cb(c, nil) })
	case segRST:
		cb := s.dials[seg.dstConn]
		delete(s.dials, seg.dstConn)
		delete(s.conns, seg.dstConn)
		if cb != nil {
			s.proc.Post(p.TCPRxCPU, func() { cb(nil, fmt.Errorf("tcpsim: connection refused by %s", m.Src.Name())) })
		}
	case segDATA:
		c := s.conns[seg.dstConn]
		if c == nil || c.closed {
			return
		}
		cost := p.TCPMsgCPURx(len(seg.data))
		// The bytes outlive the segment (its sender recycles it when this
		// delivery returns), so the receive record takes them over and hands
		// the segment its own spare buffer in exchange.
		t := s.rxTask()
		t.conn = c
		t.data, seg.data = seg.data, t.data[:0]
		c.owner().Post(cost, t.run)
	case segFIN:
		c := s.conns[seg.dstConn]
		if c == nil || c.closed {
			return
		}
		// Queue behind in-flight data so the close cannot overtake bytes
		// already delivered to the process.
		c.owner().Post(p.TCPRxCPU, func() {
			if c.closed {
				return
			}
			c.closed = true
			delete(s.conns, c.id)
			if c.onClose != nil {
				c.onClose()
			}
		})
	}
}

// conn is one TCP connection endpoint.
type conn struct {
	stack       *Stack
	id          uint64
	peerEP      *fabric.Endpoint
	peerConn    uint64
	established bool
	closed      bool
	handler     func([]byte)
	onClose     func()

	// proc, when non-nil, overrides the stack's process for data delivery
	// and per-message CPU accounting (transport.ProcAssignable) — the
	// kernel steering this connection's softirq/syscall work to the CPU
	// that owns it.
	proc *sim.Proc

	// unackedSince tracks the current streak of unacked segments
	// (-1 = last segment acked). See Stack.sendOutcome.
	unackedSince sim.Time
}

var _ transport.Conn = (*conn)(nil)
var _ transport.ProcAssignable = (*conn)(nil)

// owner is the process that delivers this connection's data and pays its
// per-message CPU costs: the assigned proc, or the stack's by default.
func (c *conn) owner() *sim.Proc {
	if c.proc != nil {
		return c.proc
	}
	return c.stack.proc
}

// AssignProc moves data delivery and per-message CPU accounting to p
// (transport.ProcAssignable). Control segments (handshake, RST) stay on the
// stack's process.
func (c *conn) AssignProc(p *sim.Proc) { c.proc = p }

// Send transmits one message: charges the kernel transmit cost on the
// owner's core; the segment departs when the core finishes its current work.
// The payload is copied before Send returns; the caller keeps its buffer.
func (c *conn) Send(payload []byte) {
	if c.closed || !c.established {
		return
	}
	s := c.stack
	p := s.net.Params()
	core := c.owner().Core
	core.Charge(p.TCPMsgCPUTx(len(payload)))
	depart := core.BusyUntil().Sub(s.net.Engine().Now())
	if depart < 0 {
		depart = 0
	}
	seg := s.segment()
	seg.kind, seg.srcConn, seg.dstConn = segDATA, c.id, c.peerConn
	seg.data = append(seg.data, payload...)
	s.net.Send(s.ep, c.peerEP, len(payload), seg, depart+2*p.TCPStackLatency)
}

func (c *conn) SetHandler(fn func([]byte)) { c.handler = fn }
func (c *conn) SetCloseHandler(fn func())  { c.onClose = fn }

// Close tears down the connection and notifies the peer with a FIN.
func (c *conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	delete(c.stack.conns, c.id)
	c.stack.sendSeg(c.peerEP, 64, segment{kind: segFIN, dstConn: c.peerConn})
}

func (c *conn) Closed() bool      { return c.closed }
func (c *conn) LocalAddr() string { return fmt.Sprintf("%s:#%d", c.stack.ep.Name(), c.id) }
func (c *conn) RemoteAddr() string {
	return fmt.Sprintf("%s:#%d", c.peerEP.Name(), c.peerConn)
}
func (c *conn) Transport() string { return "tcp" }
