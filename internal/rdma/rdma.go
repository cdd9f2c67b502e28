// Package rdma simulates the subset of the InfiniBand verbs API that SKV's
// communication module uses (paper §III-B): protection domains, memory
// regions, reliable-connected queue pairs, completion queues with event
// channels, and the SEND/RECV, RDMA WRITE, WRITE_WITH_IMM and RDMA READ
// operations, plus an RDMA_CM-style connection manager.
//
// Cost accounting follows the paper's performance argument:
//
//   - Posting a work request (ibv_post_send) consumes host CPU
//     (model.CPUPostWR) on the core driving the device. This is the cost the
//     SKV master eliminates by posting one WR per write instead of one per
//     slave.
//   - One-sided WRITE/READ consume no CPU at the passive side.
//   - Harvesting a completion costs model.CPUCompletion; consumers that
//     block on the completion event channel additionally pay a wakeup
//     (charged by their Proc, amortized under load — §III-B's
//     ibv_get_cq_event design).
//   - On-wire latency comes from the fabric path model plus sender/receiver
//     NIC processing, reproducing Fig 3.
package rdma

import (
	"fmt"

	"skv/internal/sim"
)

// Opcode identifies a verbs operation.
type Opcode int

// Supported verbs operations.
const (
	OpSend Opcode = iota
	OpRecv
	OpWrite
	OpWriteImm
	OpRead
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRecv:
		return "RECV"
	case OpWrite:
		return "WRITE"
	case OpWriteImm:
		return "WRITE_WITH_IMM"
	case OpRead:
		return "READ"
	}
	return fmt.Sprintf("Opcode(%d)", int(o))
}

// Status is the completion status of a work request.
type Status int

// Completion statuses.
const (
	StatusSuccess Status = iota
	StatusRemoteAccessErr
	StatusFlushed // QP destroyed with the WR outstanding
)

// WC is a work completion (ibv_wc).
type WC struct {
	WRID     uint64
	Op       Opcode
	Status   Status
	Imm      uint32
	ImmValid bool
	ByteLen  int
	// Data is the received payload for RECV completions of SENDs, or the
	// fetched payload for READ completions.
	Data []byte
	// QPN identifies the local QP the completion belongs to.
	QPN uint32
}

// CQ is a completion queue with an optional event channel. RequestNotify
// arms a one-shot notification (ibv_req_notify_cq); when a completion
// arrives while armed, the notify callback fires once and the CQ disarms,
// matching the ack-and-rearm discipline the paper describes.
type CQ struct {
	dev *Device
	// items holds the unharvested completions; spare is the backing array
	// the previous Poll handed out, which becomes items again at the next
	// Poll. The two swap on every harvest, so a steady CQ never allocates.
	items  []WC
	spare  []WC
	armed  bool
	notify func()
}

// OnNotify installs the event-channel callback.
func (cq *CQ) OnNotify(fn func()) { cq.notify = fn }

// RequestNotify arms the completion event channel. If completions are
// already pending, the notification fires immediately (edge-triggered verbs
// semantics require the consumer to poll after arming; firing immediately
// models that race being handled).
func (cq *CQ) RequestNotify() {
	cq.armed = true
	if len(cq.items) > 0 {
		cq.fire()
	}
}

func (cq *CQ) fire() {
	if cq.armed && cq.notify != nil {
		cq.armed = false
		if cq.dev != nil {
			cq.dev.m.cqWakeups.Inc()
		}
		cq.notify()
	}
}

// add appends a zeroed completion for the caller to fill in place — a WC is
// 80 bytes, and building one elsewhere to copy it in showed up in profiles —
// and pushed then counts it and raises the event channel.
func (cq *CQ) add() *WC {
	cq.items = append(cq.items, WC{})
	return &cq.items[len(cq.items)-1]
}

func (cq *CQ) pushed() {
	if cq.dev != nil {
		cq.dev.m.cqCompletions.Inc()
	}
	cq.fire()
}

// Poll drains up to max completions (max <= 0 means all). The returned
// slice is the CQ's own storage: it is valid until the next Poll on this CQ,
// and a caller that keeps completions longer copies them. The caller is
// responsible for charging model.CPUCompletion per harvested CQE on its
// core; helper ChargePoll does both.
func (cq *CQ) Poll(max int) []WC {
	out, rest := cq.items, cq.spare[:0]
	if max > 0 && max < len(out) {
		rest = append(rest, out[max:]...)
		out = out[:max]
	}
	cq.items, cq.spare = rest, out[:0]
	return out
}

// ChargePoll polls all pending completions and charges the completion
// harvesting cost on the given core.
func (cq *CQ) ChargePoll(core *sim.Core) []WC {
	out := cq.Poll(0)
	if n := len(out); n > 0 && core != nil {
		core.Charge(sim.Duration(n) * cq.dev.net.Params().CPUCompletion)
	}
	return out
}

// Pending reports the number of unharvested completions.
func (cq *CQ) Pending() int { return len(cq.items) }

// PD is a protection domain.
type PD struct {
	dev *Device
}

// MR is a registered memory region backed by real bytes, addressed remotely
// by its RKey.
type MR struct {
	pd    *PD
	buf   []byte
	rkey  uint32
	dereg bool
}

// RKey is the remote access key.
func (mr *MR) RKey() uint32 { return mr.rkey }

// Len reports the region size.
func (mr *MR) Len() int { return len(mr.buf) }

// Bytes exposes the underlying memory (the receive side reads messages out
// of it, exactly as a verbs application reads its registered buffer).
func (mr *MR) Bytes() []byte { return mr.buf }

// Deregister invalidates the region; subsequent remote writes fail with
// StatusRemoteAccessErr.
func (mr *MR) Deregister() {
	mr.dereg = true
	delete(mr.pd.dev.mrs, mr.rkey)
}

// Reregister invalidates the region's remote key and registers the same
// bytes again under a fresh one, as a receiver recycling a buffer does:
// writes still addressed to the old key fail with StatusRemoteAccessErr.
func (mr *MR) Reregister() {
	dev := mr.pd.dev
	delete(dev.mrs, mr.rkey)
	dev.nextRKey++
	mr.rkey = dev.nextRKey
	dev.mrs[mr.rkey] = mr
}

// RegisterMR allocates and registers a region of the given size.
func (pd *PD) RegisterMR(size int) *MR {
	dev := pd.dev
	dev.nextRKey++
	mr := &MR{pd: pd, buf: make([]byte, size), rkey: dev.nextRKey}
	dev.mrs[mr.rkey] = mr
	return mr
}

// SendWR is a send-queue work request.
type SendWR struct {
	WRID uint64
	Op   Opcode // OpSend, OpWrite, OpWriteImm, OpRead
	Data []byte // payload for SEND/WRITE*; nil for READ
	// RemoteKey/RemoteOff address the peer MR for WRITE*/READ.
	RemoteKey uint32
	RemoteOff int
	// Len is the number of bytes to fetch for READ.
	Len int
	Imm uint32
	// Signaled requests a completion on the sender's CQ (unsignaled WRs
	// complete silently, like IBV_SEND_SIGNALED omitted).
	Signaled bool
}

// RecvWR is a receive-queue work request. For SENDs the payload is copied
// into the completion; for WRITE_WITH_IMM the recv is consumed purely to
// deliver the notification.
type RecvWR struct {
	WRID uint64
}

// packet is the fabric payload exchanged between devices. Packets travel as
// *packet records owned by the sending device (Device.packet / recycle); the
// receiving device reads one only during the delivery and copies what it
// keeps (data of a SEND or a READ response).
type packet struct {
	kind   pktKind
	srcQPN uint32
	dstQPN uint32
	op     Opcode
	data   []byte
	rkey   uint32
	roff   int
	rlen   int
	imm    uint32
	immSet bool
	wrID   uint64
	sig    bool
	port   int
	status Status
}

type pktKind int

const (
	pktOp pktKind = iota
	pktAck
	pktReadResp
	pktConnReq
	pktConnAcc
	pktConnRej
)
