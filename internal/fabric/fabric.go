// Package fabric models the physical cluster: machines connected by a
// 100Gb switch, optionally carrying an off-path SmartNIC (Mellanox
// BlueField class) whose embedded NIC switch directs traffic either to the
// host or to the NIC's ARM complex (paper §II-A, Fig 2).
//
// The fabric is a latency/bandwidth model, not a packet simulator: a message
// of S bytes from endpoint A to endpoint B arrives after
// pathLatency(A,B) + S/bandwidth. Path latency is composed from PCIe hops,
// wire+switch propagation, the NIC-switch hop, and the (slow) on-NIC memory
// subsystem, which together reproduce the paper's Fig 3 ordering:
//
//	host → local SmartNIC  <  host ↔ host  <  remote host → SmartNIC
//
// with all three within a few hundred nanoseconds of each other ("the
// SmartNIC is just like a separated endpoint in the network").
package fabric

import (
	"fmt"
	"strings"

	"skv/internal/metrics"
	"skv/internal/model"
	"skv/internal/sim"
)

// Kind distinguishes host endpoints from SmartNIC (ARM complex) endpoints.
type Kind int

const (
	// KindHost is a host NIC port backed by host memory over PCIe.
	KindHost Kind = iota
	// KindNIC is the SmartNIC ARM complex behind the embedded NIC switch.
	KindNIC
)

func (k Kind) String() string {
	if k == KindNIC {
		return "nic"
	}
	return "host"
}

// Endpoint is an addressable network attachment point.
type Endpoint struct {
	machine *Machine
	kind    Kind
	name    string
	net     *Network

	// down simulates a powered-off or unreachable endpoint: messages to it
	// are silently dropped (an RDMA peer would see timeouts). With a fault
	// plane installed (Network.Faults), traffic is parked and flushed on
	// recovery instead, the way a reliable transport's retransmission
	// behaves.
	down bool

	deliver func(Message)

	// sendOutcome, when set, observes the fate of every message sent from
	// this endpoint: acked=false for drops, parked (blocked-link) sends,
	// and deliveries whose reverse path is partitioned (the ack cannot
	// return). Transports use it to time out dead connections.
	sendOutcome func(Message, bool)
}

// Name reports the endpoint's unique fabric address.
func (e *Endpoint) Name() string { return e.name }

// Kind reports whether this is a host or NIC endpoint.
func (e *Endpoint) Kind() Kind { return e.kind }

// Machine reports the machine the endpoint belongs to.
func (e *Endpoint) Machine() *Machine { return e.machine }

// SetDown marks the endpoint unreachable (true) or reachable (false).
// Bringing an endpoint back up flushes traffic parked by the fault plane.
func (e *Endpoint) SetDown(down bool) {
	wasDown := e.down
	e.down = down
	if wasDown && !down && e.net != nil && e.net.faults != nil {
		e.net.faults.flushEndpoint(e)
	}
}

// Down reports whether the endpoint is unreachable.
func (e *Endpoint) Down() bool { return e.down }

// Handle registers the receive function invoked for each delivered message.
// Exactly one receiver (the RDMA device or TCP stack) owns an endpoint.
func (e *Endpoint) Handle(fn func(Message)) { e.deliver = fn }

// OnSendOutcome registers fn to observe the fate of messages sent from this
// endpoint: acked=true when the message was delivered and its transport-
// level ack can return, false otherwise. The transport layers use the
// unacked streak to fail connections the way RC retry-exhaustion / TCP RTO
// would.
func (e *Endpoint) OnSendOutcome(fn func(Message, bool)) { e.sendOutcome = fn }

func notifyOutcome(src *Endpoint, m Message, acked bool) {
	if src != nil && src.sendOutcome != nil {
		src.sendOutcome(m, acked)
	}
}

// Machine is one server chassis: a host endpoint and, if a SmartNIC is
// installed, a NIC endpoint sharing the same physical port.
type Machine struct {
	Name string
	Host *Endpoint
	NIC  *Endpoint // nil if no SmartNIC installed
}

// Message is one fabric-level datagram.
type Message struct {
	Src     *Endpoint
	Dst     *Endpoint
	Size    int
	Payload any
	// Parked marks a message the fault plane has held on a blocked link. Its
	// outcome is reported when it parks and again if the link heals and it
	// is delivered, in either order of completion, so the sender must leave
	// Payload alone. The outcome report of any other message is the last
	// use the fabric makes of Payload: a transport that recycles its payload
	// records takes the record back there.
	Parked bool
}

// delivery is one message in flight: the record the network schedules
// instead of a closure per send. run is d.fire, bound when the record is
// first created; records return to the network's free list when they fire.
type delivery struct {
	net *Network
	msg Message
	run func()
}

// Network is the set of machines and the switch connecting them.
type Network struct {
	eng      *sim.Engine
	params   *model.Params
	machines map[string]*Machine

	// lastArrival enforces FIFO delivery per (src,dst) pair, the ordering
	// guarantee of a reliable-connected transport: a large message sent
	// first cannot be overtaken by a small one sent later.
	lastArrival map[[2]*Endpoint]sim.Time

	// idle holds delivery records not in flight; it grows to the peak number
	// of messages simultaneously on the wire.
	idle []*delivery

	// faults is the fault-injection plane, nil until Faults() installs it.
	faults *Faults

	// metrics is the fabric's registry and the counters below are resolved
	// from it. Dropped counts messages dropped at a down endpoint; Parked,
	// Retransmits and Spikes count the fault plane's parked messages,
	// loss→retransmission events and delay spikes.
	metrics     *metrics.Registry
	mTxMsgs     *metrics.Counter
	mTxBytes    *metrics.Counter
	mDelivered  *metrics.Counter
	Dropped     *metrics.Counter
	Parked      *metrics.Counter
	Retransmits *metrics.Counter
	Spikes      *metrics.Counter
}

// New creates an empty network on the engine with the given parameters and
// its own "fabric" metrics registry.
func New(eng *sim.Engine, params *model.Params) *Network {
	n := &Network{
		eng:         eng,
		params:      params,
		machines:    make(map[string]*Machine),
		lastArrival: make(map[[2]*Endpoint]sim.Time),
	}
	n.SetMetrics(metrics.NewRegistry("fabric", eng.Now))
	return n
}

// Engine exposes the simulation engine driving this network.
func (n *Network) Engine() *sim.Engine { return n.eng }

// SetMetrics replaces the fabric's metrics registry and resolves the
// wire-level instruments (tx messages/bytes, deliveries, drops, parked
// traffic, retransmits, delay spikes) from it.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	n.metrics = reg
	n.mTxMsgs = reg.Counter("fabric.tx.msgs")
	n.mTxBytes = reg.Counter("fabric.tx.bytes")
	n.mDelivered = reg.Counter("fabric.rx.msgs")
	n.Dropped = reg.Counter("fabric.dropped")
	n.Parked = reg.Counter("fabric.parked")
	n.Retransmits = reg.Counter("fabric.retransmits")
	n.Spikes = reg.Counter("fabric.spikes")
}

// Metrics exposes the fabric registry.
func (n *Network) Metrics() *metrics.Registry { return n.metrics }

// Params exposes the calibration parameters.
func (n *Network) Params() *model.Params { return n.params }

// NewMachine adds a machine. If smartNIC is true the machine gets a NIC
// endpoint for the on-SmartNIC software (Nic-KV).
func (n *Network) NewMachine(name string, smartNIC bool) *Machine {
	if _, dup := n.machines[name]; dup {
		panic(fmt.Sprintf("fabric: duplicate machine %q", name))
	}
	m := &Machine{Name: name}
	m.Host = &Endpoint{machine: m, kind: KindHost, name: name + "/host", net: n}
	if smartNIC {
		m.NIC = &Endpoint{machine: m, kind: KindNIC, name: name + "/nic", net: n}
	}
	n.machines[name] = m
	return m
}

// Machine looks up a machine by name, or nil.
func (n *Network) Machine(name string) *Machine { return n.machines[name] }

// EndpointByName resolves an endpoint address of the form "machine/host" or
// "machine/nic", or nil when unknown. Message payloads that must name a
// node (SKV's initial-sync requests) carry these strings.
func (n *Network) EndpointByName(name string) *Endpoint {
	// The machine is everything before the last '/'.
	m := n.machines[name[:max(strings.LastIndexByte(name, '/'), 0)]]
	switch {
	case m == nil:
		return nil
	case m.Host.name == name:
		return m.Host
	case m.NIC != nil && m.NIC.name == name:
		return m.NIC
	}
	return nil
}

// nicMemLatency is the extra latency of terminating traffic in the SmartNIC
// ARM complex (slow on-board DDR + full network stack on the NIC, §II-A2).
func (n *Network) nicMemLatency() sim.Duration {
	return n.params.NICSwitchLatency + n.params.PCIeLatency // ≈ stack+DDR cost
}

// PathLatency reports the one-way fabric latency between two endpoints,
// excluding serialization (size/bandwidth) and NIC processing.
func (n *Network) PathLatency(src, dst *Endpoint) sim.Duration {
	p := n.params
	if src == dst {
		return p.NICSwitchLatency // pure loopback through the NIC switch
	}
	var d sim.Duration
	// Source side: getting the data from its memory to the port.
	if src.kind == KindHost {
		d += p.PCIeLatency
	} else {
		d += n.nicMemLatency()
	}
	// Middle: same machine → only the embedded NIC switch; different
	// machine → wire + ToR switch.
	if src.machine == dst.machine {
		d += p.NICSwitchLatency
	} else {
		d += p.WireLatency
		// Reaching an ARM complex behind a remote NIC takes the extra
		// embedded-switch hop.
		if dst.kind == KindNIC || src.kind == KindNIC {
			d += p.NICSwitchLatency
		}
	}
	// Destination side: placing the data into its memory.
	if dst.kind == KindHost {
		d += p.PCIeLatency
	} else {
		d += n.nicMemLatency()
	}
	return d
}

// Send schedules delivery of a message. extra is additional latency the
// caller wants included (e.g. sender/receiver NIC processing from the RDMA
// model, or kernel-stack latency from the TCP model). With a fault plane
// installed the message is first routed through it (partition parking,
// loss→retransmit delay, delay spikes).
func (n *Network) Send(src, dst *Endpoint, size int, payload any, extra sim.Duration) {
	if dst == nil {
		panic("fabric: Send to nil endpoint")
	}
	n.mTxMsgs.Inc()
	n.mTxBytes.Add(uint64(size))
	lat := n.PathLatency(src, dst) + n.params.TransferTime(size) + extra
	m := Message{Src: src, Dst: dst, Size: size, Payload: payload}
	if n.faults != nil {
		n.faults.send(m, lat)
		return
	}
	n.deliverAfter(m, lat)
}

// deliverAfter schedules actual delivery lat from now, preserving per-link
// FIFO ordering (a reliable-connected transport's guarantee).
func (n *Network) deliverAfter(m Message, lat sim.Duration) {
	key := [2]*Endpoint{m.Src, m.Dst}
	arrive := n.eng.Now().Add(lat)
	if last := n.lastArrival[key]; arrive < last {
		arrive = last
	}
	n.lastArrival[key] = arrive
	lat = arrive.Sub(n.eng.Now())
	var d *delivery
	if k := len(n.idle); k > 0 {
		d = n.idle[k-1]
		n.idle = n.idle[:k-1]
	} else {
		d = &delivery{net: n}
		d.run = d.fire
	}
	d.msg = m
	n.eng.After(lat, d.run)
}

// fire is the arrival of one message at its destination.
func (d *delivery) fire() {
	n, m := d.net, d.msg
	d.msg = Message{}
	n.idle = append(n.idle, d)
	src, dst := m.Src, m.Dst
	if dst.down || dst.deliver == nil {
		n.Dropped.Inc()
		notifyOutcome(src, m, false)
		return
	}
	n.mDelivered.Inc()
	// The ack for this delivery travels dst→src; a partitioned reverse
	// path starves the sender of acks even though the data landed.
	acked := n.faults == nil || !n.faults.Partitioned(dst, src)
	dst.deliver(m)
	notifyOutcome(src, m, acked)
}
