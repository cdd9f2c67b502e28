package rdma

import (
	"fmt"

	"skv/internal/fabric"
	"skv/internal/metrics"
	"skv/internal/ring"
	"skv/internal/sim"
)

// Device is the RDMA-capable NIC function attached to one fabric endpoint.
// The core given at construction is the CPU that drives the device's verbs
// calls (posting work requests consumes its cycles); completions and
// incoming one-sided operations consume no CPU until harvested.
type Device struct {
	net  *fabric.Network
	ep   *fabric.Endpoint
	core *sim.Core

	qps       map[uint32]*QP
	mrs       map[uint32]*MR
	listeners map[int]func(*QP)

	nextQPN  uint32
	nextRKey uint32
	nextReq  uint64
	pending  map[uint64]func(*QP, error) // in-flight Connect callbacks

	// idle holds the device's packet records not on the wire; it grows to
	// the peak number of packets this device has in flight at once.
	idle []*packet

	// m holds the device's resolved metrics instruments; all fields are
	// nil-safe no-ops until SetMetrics installs a registry.
	m devMetrics
}

// devMetrics is the verbs-level instrument set: work requests posted per
// verb, completions pushed, and completion-channel wakeups fired.
type devMetrics struct {
	wrSend     *metrics.Counter
	wrWrite    *metrics.Counter
	wrWriteImm *metrics.Counter
	wrRead     *metrics.Counter
	wrRecv     *metrics.Counter

	cqCompletions *metrics.Counter
	cqWakeups     *metrics.Counter
}

// SetMetrics wires the device's instruments into the given registry
// (normally the owning node's).
func (d *Device) SetMetrics(reg *metrics.Registry) {
	d.m = devMetrics{
		wrSend:        reg.Counter("rdma.wr.send"),
		wrWrite:       reg.Counter("rdma.wr.write"),
		wrWriteImm:    reg.Counter("rdma.wr.write_imm"),
		wrRead:        reg.Counter("rdma.wr.read"),
		wrRecv:        reg.Counter("rdma.wr.recv"),
		cqCompletions: reg.Counter("rdma.cq.completions"),
		cqWakeups:     reg.Counter("rdma.cq.wakeups"),
	}
}

// NewDevice opens a device on the endpoint, driven by the given core.
func NewDevice(net *fabric.Network, ep *fabric.Endpoint, core *sim.Core) *Device {
	d := &Device{
		net:       net,
		ep:        ep,
		core:      core,
		qps:       make(map[uint32]*QP),
		mrs:       make(map[uint32]*MR),
		listeners: make(map[int]func(*QP)),
		pending:   make(map[uint64]func(*QP, error)),
	}
	ep.Handle(d.recv)
	ep.OnSendOutcome(d.sendOutcome)
	return d
}

// sendOutcome observes the fate of every packet this device pushed onto the
// fabric. A streak of unacked sends (partition, down peer) spanning the
// RC retry window transitions the QP to the error state, exactly what
// retry-exhaustion does to a real reliable-connected QP.
func (d *Device) sendOutcome(m fabric.Message, acked bool) {
	p, ok := m.Payload.(*packet)
	if !ok {
		return
	}
	if qp := d.qps[p.srcQPN]; qp != nil && !qp.closed {
		qp.sendOutcome(acked)
	}
	if !m.Parked {
		d.recycle(p)
	}
}

func (qp *QP) sendOutcome(acked bool) {
	if acked {
		qp.unackedSince = -1
		return
	}
	d := qp.dev
	now := d.net.Engine().Now()
	if qp.unackedSince < 0 {
		qp.unackedSince = now
		return
	}
	if now.Sub(qp.unackedSince) >= d.net.Params().RetryTimeout {
		qp.fail()
	}
}

// maxPooledData bounds the payload buffer an idle packet record keeps. The
// steady-state traffic (commands, replies, stream frames) fits; the chunks
// of an initial-sync payload do not, and their buffers go back to the
// collector instead of staying pinned by the pool.
const maxPooledData = 4 << 10

// packet takes a cleared record off the idle list; its data is an empty
// buffer to append the payload to.
func (d *Device) packet() *packet {
	var p *packet
	if n := len(d.idle); n > 0 {
		p = d.idle[n-1]
		d.idle = d.idle[:n-1]
	} else {
		p = new(packet)
	}
	*p = packet{data: p.data[:0]}
	return p
}

func (d *Device) recycle(p *packet) {
	if cap(p.data) > maxPooledData {
		p.data = nil
	}
	d.idle = append(d.idle, p)
}

// Endpoint reports the fabric endpoint the device is attached to.
func (d *Device) Endpoint() *fabric.Endpoint { return d.ep }

// Core reports the CPU core charged for verbs calls on this device.
func (d *Device) Core() *sim.Core { return d.core }

// AllocPD allocates a protection domain.
func (d *Device) AllocPD() *PD { return &PD{dev: d} }

// NewCQ creates a completion queue.
func (d *Device) NewCQ() *CQ { return &CQ{dev: d} }

// QP is a reliable-connected queue pair.
type QP struct {
	dev     *Device
	qpn     uint32
	peerEP  *fabric.Endpoint
	peerQPN uint32

	SendCQ *CQ
	RecvCQ *CQ

	recvQueue ring.Queue[RecvWR]
	// stash holds arrived SEND/WRITE_WITH_IMM operations that found no
	// posted receive (receiver-not-ready); they complete when a recv is
	// posted, modelling RNR retry.
	stash  ring.Queue[arrival]
	closed bool

	// Context lets the application attach per-connection state (the client
	// object in Redis terms).
	Context any

	// sendCore, when non-nil, overrides the device core for PostSend cost
	// accounting — the thread that drives this QP's send queue (Nic-KV's
	// multi-threaded replication pins QPs to ARM cores).
	sendCore *sim.Core
	// recvCore, when non-nil, overrides the device core for receive-WR post
	// cost accounting — the thread that refills this QP's receive ring (the
	// sharded server's routing plane pins client QPs to routing cores).
	recvCore *sim.Core

	// unackedSince is when the current streak of unacked sends began
	// (-1 when the last send was acked). Maintained by Device.sendOutcome.
	unackedSince sim.Time
	// onFail is invoked once when retry exhaustion fails the QP.
	onFail func()
	// Failed reports that the QP died of retry exhaustion.
	Failed bool
}

// OnFail registers fn to run when the QP transitions to the error state
// (retry exhaustion on a dead link). The QP is already closed when fn runs.
func (qp *QP) OnFail(fn func()) { qp.onFail = fn }

// fail moves the QP to the error state: close it and notify the owner.
func (qp *QP) fail() {
	if qp.closed {
		return
	}
	qp.Failed = true
	fn := qp.onFail
	qp.Close()
	if fn != nil {
		fn()
	}
}

// QPN reports the queue pair number.
func (qp *QP) QPN() uint32 { return qp.qpn }

// RemoteEndpoint reports the peer's fabric endpoint.
func (qp *QP) RemoteEndpoint() *fabric.Endpoint { return qp.peerEP }

// Closed reports whether Close was called.
func (qp *QP) Closed() bool { return qp.closed }

func (d *Device) newQP(sendCQ, recvCQ *CQ) *QP {
	d.nextQPN++
	qp := &QP{dev: d, qpn: d.nextQPN, SendCQ: sendCQ, RecvCQ: recvCQ, unackedSince: -1}
	d.qps[qp.qpn] = qp
	return qp
}

// Listen registers an accept handler for CM connection requests on port.
// The accept callback receives the fully connected QP.
func (d *Device) Listen(port int, accept func(*QP)) {
	if _, dup := d.listeners[port]; dup {
		panic(fmt.Sprintf("rdma: %s already listening on %d", d.ep.Name(), port))
	}
	d.listeners[port] = accept
}

// Connect initiates an RDMA_CM connection to a listener. cb runs when the
// handshake completes (or fails because nothing listens / peer is down —
// the latter surfaces as no callback at all, like a CM timeout, unless
// the caller arranges its own timer).
//
// The new QP uses freshly created send/recv CQs unless the caller passes
// non-nil ones.
func (d *Device) Connect(peer *fabric.Endpoint, port int, sendCQ, recvCQ *CQ, cb func(*QP, error)) {
	if sendCQ == nil {
		sendCQ = d.NewCQ()
	}
	if recvCQ == nil {
		recvCQ = d.NewCQ()
	}
	qp := d.newQP(sendCQ, recvCQ)
	qp.peerEP = peer
	d.nextReq++
	id := d.nextReq
	d.pending[id] = func(q *QP, err error) { cb(q, err) }
	d.send(peer, 64, packet{kind: pktConnReq, srcQPN: qp.qpn, port: port, wrID: id})
}

// send pushes a packet onto the fabric with RDMA NIC processing latency.
// p.data is copied.
func (d *Device) send(dst *fabric.Endpoint, size int, p packet) {
	q := d.packet()
	p.data = append(q.data, p.data...)
	*q = p
	params := d.net.Params()
	extra := params.RDMASenderProc + params.RDMAReceiverProc
	d.net.Send(d.ep, dst, size, q, extra)
}

// recv handles a fabric delivery. This is NIC hardware processing: it never
// charges host CPU.
func (d *Device) recv(m fabric.Message) {
	p, ok := m.Payload.(*packet)
	if !ok {
		return
	}
	switch p.kind {
	case pktConnReq:
		accept, listening := d.listeners[p.port]
		if !listening {
			d.send(m.Src, 64, packet{kind: pktConnRej, dstQPN: p.srcQPN, wrID: p.wrID})
			return
		}
		qp := d.newQP(d.NewCQ(), d.NewCQ())
		qp.peerEP = m.Src
		qp.peerQPN = p.srcQPN
		d.send(m.Src, 64, packet{kind: pktConnAcc, dstQPN: p.srcQPN, srcQPN: qp.qpn, wrID: p.wrID})
		accept(qp)
	case pktConnAcc:
		qp := d.qps[p.dstQPN]
		cb := d.pending[p.wrID]
		delete(d.pending, p.wrID)
		if qp == nil || cb == nil {
			return
		}
		qp.peerQPN = p.srcQPN
		cb(qp, nil)
	case pktConnRej:
		cb := d.pending[p.wrID]
		delete(d.pending, p.wrID)
		delete(d.qps, p.dstQPN)
		if cb != nil {
			cb(nil, fmt.Errorf("rdma: connection to %s refused", m.Src.Name()))
		}
	case pktOp:
		d.recvOp(m.Src, p)
	case pktAck:
		qp := d.qps[p.dstQPN]
		if qp == nil {
			return
		}
		wc := qp.SendCQ.add()
		wc.WRID, wc.Op, wc.Status, wc.QPN = p.wrID, p.op, p.status, qp.qpn
		qp.SendCQ.pushed()
	case pktReadResp:
		qp := d.qps[p.dstQPN]
		if qp == nil {
			return
		}
		wc := qp.SendCQ.add()
		wc.WRID, wc.Op, wc.Status, wc.QPN = p.wrID, OpRead, p.status, qp.qpn
		wc.ByteLen, wc.Data = len(p.data), append([]byte(nil), p.data...)
		qp.SendCQ.pushed()
	}
}

func (d *Device) recvOp(src *fabric.Endpoint, p *packet) {
	qp := d.qps[p.dstQPN]
	if qp == nil || qp.closed {
		return // stale packet to a destroyed QP
	}
	switch p.op {
	case OpWrite, OpWriteImm:
		status := StatusSuccess
		mr := d.mrs[p.rkey]
		if mr == nil || mr.dereg || p.roff < 0 || p.roff+len(p.data) > len(mr.buf) {
			status = StatusRemoteAccessErr
		} else {
			copy(mr.buf[p.roff:], p.data)
		}
		if status == StatusSuccess && p.op == OpWriteImm {
			qp.consumeRecv(arrival{byteLen: len(p.data), imm: p.imm, immSet: true})
		}
		if p.sig {
			d.send(src, 16, packet{kind: pktAck, dstQPN: p.srcQPN, wrID: p.wrID, op: p.op, status: status})
		}
	case OpSend:
		qp.consumeRecv(arrival{byteLen: len(p.data), data: append([]byte(nil), p.data...)})
		if p.sig {
			d.send(src, 16, packet{kind: pktAck, dstQPN: p.srcQPN, wrID: p.wrID, op: OpSend, status: StatusSuccess})
		}
	case OpRead:
		mr := d.mrs[p.rkey]
		status := StatusSuccess
		var data []byte
		if mr == nil || mr.dereg || p.roff < 0 || p.roff+p.rlen > len(mr.buf) {
			status = StatusRemoteAccessErr
		} else {
			data = mr.buf[p.roff : p.roff+p.rlen]
		}
		d.send(src, len(data)+16, packet{kind: pktReadResp, dstQPN: p.srcQPN, wrID: p.wrID, data: data, status: status})
	}
}

// arrival is what an inbound SEND or WRITE_WITH_IMM leaves for the receive
// queue once its packet has been processed: the byte count, the immediate
// (WRITE_WITH_IMM) or an owned copy of the payload (SEND).
type arrival struct {
	byteLen int
	data    []byte
	imm     uint32
	immSet  bool
}

// consumeRecv matches an inbound SEND/WRITE_WITH_IMM against a posted recv,
// or stashes it until one is posted (RNR retry semantics).
func (qp *QP) consumeRecv(a arrival) {
	if qp.recvQueue.Len() == 0 {
		qp.stash.Push(a)
		return
	}
	wc := qp.RecvCQ.add()
	wc.WRID, wc.Op, wc.Status, wc.QPN = qp.recvQueue.Pop().WRID, OpRecv, StatusSuccess, qp.qpn
	wc.ByteLen, wc.Data = a.byteLen, a.data
	wc.Imm, wc.ImmValid = a.imm, a.immSet
	qp.RecvCQ.pushed()
}

// PostRecv posts a receive work request. Charges CPUPostWR on the device's
// driving core.
func (qp *QP) PostRecv(wr RecvWR) {
	qp.chargePost()
	qp.dev.m.wrRecv.Inc()
	qp.recvQueue.Push(wr)
	if qp.stash.Len() > 0 {
		qp.consumeRecv(qp.stash.Pop())
	}
}

// PostRecvN posts n receives with sequential WRIDs starting at base,
// charging a single doorbell's worth of CPU (batched post, as real
// applications do when refilling the receive ring).
func (qp *QP) PostRecvN(base uint64, n int) {
	qp.chargePost()
	qp.dev.m.wrRecv.Add(uint64(n))
	for i := 0; i < n; i++ {
		qp.recvQueue.Push(RecvWR{WRID: base + uint64(i)})
	}
	for qp.stash.Len() > 0 && qp.recvQueue.Len() > 0 {
		qp.consumeRecv(qp.stash.Pop())
	}
}

// SetSendCore pins the QP's send-side CPU accounting to a specific core.
func (qp *QP) SetSendCore(c *sim.Core) { qp.sendCore = c }

// SetRecvCore pins the QP's receive-WR post accounting to a specific core.
func (qp *QP) SetRecvCore(c *sim.Core) { qp.recvCore = c }

// postCore is the core charged for send-queue posts.
func (qp *QP) postCore() *sim.Core {
	if qp.sendCore != nil {
		return qp.sendCore
	}
	return qp.dev.core
}

func (qp *QP) chargePost() {
	core := qp.dev.core
	if qp.recvCore != nil {
		core = qp.recvCore
	}
	if core != nil {
		core.Charge(qp.dev.net.Params().CPUPostWR)
	}
}

// PostSend posts a send-queue work request (SEND, WRITE, WRITE_WITH_IMM or
// READ). Charges CPUPostWR on the driving core; the payload departs at the
// core's current completion point, so CPU queueing delays the wire exactly
// as a real doorbell written at the end of a busy handler would be.
func (qp *QP) PostSend(wr SendWR) error {
	if qp.closed {
		return fmt.Errorf("rdma: post on closed QP %d", qp.qpn)
	}
	if qp.peerEP == nil {
		return fmt.Errorf("rdma: QP %d not connected", qp.qpn)
	}
	switch wr.Op {
	case OpSend:
		qp.dev.m.wrSend.Inc()
	case OpWrite:
		qp.dev.m.wrWrite.Inc()
	case OpWriteImm:
		qp.dev.m.wrWriteImm.Inc()
	case OpRead:
		qp.dev.m.wrRead.Inc()
	}
	if pc := qp.postCore(); pc != nil {
		pc.Charge(qp.dev.net.Params().CPUPostWR)
	}
	d := qp.dev
	p := d.packet()
	p.kind = pktOp
	p.srcQPN = qp.qpn
	p.dstQPN = qp.peerQPN
	p.op = wr.Op
	p.rkey = wr.RemoteKey
	p.roff = wr.RemoteOff
	p.rlen = wr.Len
	p.wrID = wr.WRID
	p.sig = wr.Signaled
	size := 16
	if wr.Op != OpRead {
		p.data = append(p.data, wr.Data...)
		size += len(wr.Data)
	}
	if wr.Op == OpWriteImm {
		p.imm = wr.Imm
		p.immSet = true
	}
	// The message leaves the NIC once the CPU has finished the work it is
	// currently charged with (the doorbell rings at the end of the handler).
	var depart sim.Duration
	if pc := qp.postCore(); pc != nil {
		depart = pc.BusyUntil().Sub(d.net.Engine().Now())
		if depart < 0 {
			depart = 0
		}
	}
	params := d.net.Params()
	extra := depart + params.RDMASenderProc + params.RDMAReceiverProc
	d.net.Send(d.ep, qp.peerEP, size, p, extra)
	return nil
}

// Close destroys the QP. Outstanding stashed packets are dropped.
func (qp *QP) Close() {
	if qp.closed {
		return
	}
	qp.closed = true
	delete(qp.dev.qps, qp.qpn)
	qp.stash.Reset()
	qp.recvQueue.Reset()
}
