// Package transport defines the message-oriented connection abstraction the
// SKV servers and clients are written against. Two implementations exist:
//
//   - internal/tcpsim — the kernel TCP stack model used by the "original
//     Redis" baseline (Fig 10's lower curve);
//   - internal/rconn — the RDMA verbs implementation of §III-B
//     (WRITE_WITH_IMM data path, SEND/RECV memory-region exchange,
//     completion event channels), used by RDMA-Redis and SKV.
//
// Both charge their transport's CPU and latency costs on the owning
// process's core, so a server's throughput ceiling emerges from the cost
// model rather than being asserted.
package transport

import (
	"skv/internal/fabric"
	"skv/internal/sim"
)

// Conn is a reliable, ordered, message-oriented connection endpoint.
//
// Buffer ownership: Send copies, handlers borrow. The payload given to Send
// is the caller's again as soon as Send returns. The payload a handler
// receives is the transport's own memory (a receive ring, a recycled
// buffer), lent until the handler returns: the handler may read it, pass it
// to Send or to a decoder's Feed, even write to it, but whatever must
// outlive the call is copied.
type Conn interface {
	// Send transmits one application message. It charges the transport's
	// transmit CPU cost on the owner's core; the message departs once the
	// core finishes its currently charged work.
	Send(payload []byte)
	// SetHandler installs the receive callback. It is invoked from the
	// owning Proc with the transport's receive CPU cost already charged.
	// payload is valid only until fn returns.
	SetHandler(fn func(payload []byte))
	// SetCloseHandler installs a callback invoked when the peer closes.
	SetCloseHandler(fn func())
	// Close tears the connection down and notifies the peer.
	Close()
	// Closed reports whether the connection is down.
	Closed() bool
	// LocalAddr and RemoteAddr identify the two fabric endpoints.
	LocalAddr() string
	RemoteAddr() string
	// Transport names the implementation ("tcp" or "rdma").
	Transport() string
}

// Stack is one endpoint's instance of a transport: it can accept and
// initiate connections. A Stack owns its fabric endpoint's receive path.
type Stack interface {
	// Listen registers an accept callback for the port.
	Listen(port int, accept func(Conn))
	// Dial asynchronously connects to a listener; cb receives the
	// connection or an error.
	Dial(remote *fabric.Endpoint, port int, cb func(Conn, error))
	// Endpoint reports the fabric endpoint this stack is bound to.
	Endpoint() *fabric.Endpoint
	// Transport names the implementation ("tcp" or "rdma").
	Transport() string
}

// ProcAssignable is implemented by connections whose delivery process can be
// reassigned after establishment: AssignProc moves the connection's receive
// delivery (and its receive/send CPU accounting) from the stack's owning
// process to the given one. The sharded server's routing plane uses this to
// pin each accepted client connection to a per-listener routing proc, so the
// transport receive path stops consuming dispatch-core cycles. Reassignment
// only affects deliveries scheduled after the call; it must be invoked from
// the owning engine's event context (accept callbacks qualify).
type ProcAssignable interface {
	AssignProc(p *sim.Proc)
}
