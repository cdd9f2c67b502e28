// Package model holds every calibration constant of the SKV simulation in
// one place: network latencies, per-operation CPU costs, bandwidths, and
// core speeds.
//
// The defaults are anchored to the measured points reported in the paper
// ("SKV: A SmartNIC-Offloaded Distributed Key-Value Store", CLUSTER 2022):
//
//   - Fig 3: RDMA WRITE latency host↔host ≈ host↔local-SmartNIC, with the
//     local-NIC path only slightly lower and the remote-host→SmartNIC path
//     slightly higher.
//   - Fig 10a: kernel-TCP Redis saturates ≈130 kops/s (≈7.7µs of host CPU
//     per SET); RDMA-Redis exceeds 330 kops/s (≈2.9µs per SET).
//   - Fig 11: with 3 slaves, the RDMA-Redis master pays a per-slave feed +
//     work-request post for every write, while SKV posts a single
//     replication request to Nic-KV — yielding ≈14% higher throughput and
//     ≈21% lower p99 latency at 8 clients.
//   - §II-A / §IV: BlueField ARM A72 cores are much slower than host Xeon
//     cores (literature measures ≈30–40% of host single-core performance).
//
// Absolute values are a model, not a measurement of this machine; what the
// reproduction preserves is the relative cost structure the paper's design
// exploits.
package model

import "skv/internal/sim"

// Params is the full parameter set for one simulated cluster.
type Params struct {
	// ---- Core speeds (relative to the reference host core) ----

	// HostCoreSpeed is the speed of a host Xeon core. Reference = 1.0.
	HostCoreSpeed float64
	// NICCoreSpeed is the speed of one SmartNIC ARM A72 core relative to a
	// host core (§II-C "the performance of the cores on the SmartNIC is much
	// weaker than that of the host cores").
	NICCoreSpeed float64
	// NICCores is the number of ARM cores on the SmartNIC (BlueField-2: 8).
	NICCores int

	// ---- Fabric (100Gb RoCE, Fig 3) ----

	// LinkBandwidthBps is the port bandwidth in bits/s (100 Gb/s).
	LinkBandwidthBps float64
	// WireLatency is the one-way propagation + switch latency between two
	// machines' NIC ports.
	WireLatency sim.Duration
	// NICSwitchLatency is the extra hop through the off-path SmartNIC's
	// embedded NIC switch when traffic is directed to/from the NIC cores.
	NICSwitchLatency sim.Duration
	// PCIeLatency is the DMA hop between a NIC port and host memory.
	PCIeLatency sim.Duration

	// ---- RDMA verbs cost model ----

	// RDMASenderProc is the sender-side NIC processing time for one work
	// request (doorbell + WQE fetch + DMA read of the payload descriptor).
	RDMASenderProc sim.Duration
	// RDMAReceiverProc is the receiver-side NIC processing time (DMA write,
	// CQE generation).
	RDMAReceiverProc sim.Duration
	// CPUPostWR is the host CPU cost of posting one work request
	// (ibv_post_send / ibv_post_recv). This is the cost the SKV design
	// removes from the master's replication path: RDMA-Redis posts one WR
	// per slave per write; SKV posts one per write.
	CPUPostWR sim.Duration
	// CPUCompletion is the CPU cost of harvesting one completion (CQE poll +
	// ibv_ack_cq_events + re-arm via ibv_req_notify_cq).
	CPUCompletion sim.Duration
	// CompChannelWake is the latency of blocking on the completion event
	// channel and being woken (the CPU-saving alternative to busy-polling
	// the CQ that §III-B adopts). Charged only on idle→busy transitions;
	// under load it amortizes away.
	CompChannelWake sim.Duration

	// ---- Kernel TCP cost model (original Redis transport) ----

	// TCPRxCPU is the host CPU consumed to receive one small message through
	// the kernel stack (softirq, protocol processing, copy to user,
	// epoll/read syscalls).
	TCPRxCPU sim.Duration
	// TCPTxCPU is the host CPU to send one small message (write syscall,
	// copy from user, protocol processing, qdisc).
	TCPTxCPU sim.Duration
	// TCPPerByteCPU is the additional copy cost per payload byte (two copies
	// per direction).
	TCPPerByteCPU float64 // ns per byte
	// TCPStackLatency is the added one-way latency of kernel stack traversal
	// relative to the raw wire (interrupt, softirq scheduling).
	TCPStackLatency sim.Duration
	// TCPWakeup is the epoll_wait return / context-switch cost on an
	// idle→busy transition.
	TCPWakeup sim.Duration

	// ---- Key-value engine costs (per command, on the serving core) ----

	// CmdParseCPU is the fixed RESP parse + dispatch cost per command.
	CmdParseCPU sim.Duration
	// CmdParsePerByte is the per-byte parse/copy cost.
	CmdParsePerByte float64 // ns per byte
	// CmdExecSetCPU is the hash-table insert/overwrite cost for SET.
	CmdExecSetCPU sim.Duration
	// CmdExecGetCPU is the lookup cost for GET.
	CmdExecGetCPU sim.Duration
	// CmdExecPerByte is the per-byte cost of copying the value into/out of
	// the store.
	CmdExecPerByte float64 // ns per byte
	// ReplyBuildCPU is the cost of building the reply (addReply path).
	ReplyBuildCPU sim.Duration

	// ---- Replication path costs ----

	// ReplFeedSlaveCPU is the master CPU cost, per slave, of appending a
	// write command to that slave's output buffer and flushing it
	// (RDMA-Redis steady state: this happens once per slave per write; each
	// flush additionally pays CPUPostWR).
	ReplFeedSlaveCPU sim.Duration
	// ReplFeedJitterP is the probability a slave feed hits a slow path
	// (output buffer growth / backlog trim), and ReplFeedJitterCPU its cost.
	// This is what inflates tail latency more than average latency when
	// slaves are attached (Fig 7: p99 grows >25%).
	ReplFeedJitterP   float64
	ReplFeedJitterCPU sim.Duration
	// ReplOffloadReqCPU is the master CPU cost of building the single
	// replication request SKV sends to Nic-KV (plus one CPUPostWR).
	ReplOffloadReqCPU sim.Duration
	// NicParseReqCPU is the Nic-KV cost (reference speed; scaled by the ARM
	// core speed) of parsing one replication request.
	NicParseReqCPU sim.Duration
	// NicFeedSlaveCPU is the Nic-KV per-slave cost of writing the command
	// into the slave's send buffer and posting the WRITE_WITH_IMM.
	NicFeedSlaveCPU sim.Duration
	// SlaveApplyCPU is the slave-side cost of executing one replicated write.
	SlaveApplyCPU sim.Duration
	// ReplBatchMaxCmds is the replication-stream batching budget in
	// commands: the master coalesces up to this many writes into one
	// replication send (one WR instead of one per write — the doorbell
	// amortization off-path SmartNIC studies report). 1 disables batching:
	// every write flushes as its own one-command batch. Partial batches
	// flush when the producing core quiesces (end of the event-loop tick).
	ReplBatchMaxCmds int
	// ReplBatchMaxDelay, when > 0, replaces the quiesce flush with a
	// doorbell-coalescing timer: a partial batch flushes this long after
	// its first command (NIC interrupt-moderation discipline). An
	// underloaded producer — the demoted merge stage, which handles one
	// 150ns merge per ~650ns arrival — quiesces between every two writes,
	// so the quiesce flush degenerates to batch=1 there; the timer is what
	// lets ReplBatchMaxCmds actually accumulate. 0 keeps the legacy
	// quiesce flush bit-for-bit.
	ReplBatchMaxDelay sim.Duration
	// RDBPerByte is the serialize/load cost per byte of RDB payload during
	// initial synchronization.
	RDBPerByte float64 // ns per byte

	// ---- Host-KV sharding (multi-core keyspace execution) ----

	// HostShards is the number of keyspace shards a Host-KV node runs. Every
	// node is a dispatch Proc (RESP parse + key-hash routing), N shards
	// (each owning a disjoint slice of every numbered DB), and a merge
	// stage that serializes completed writes into the replication stream.
	// With N > 1 each shard is a Proc on a core of its own. With 1 (or 0)
	// the one shard shares the dispatch Proc and its core — the paper's
	// single event loop: no extra cores, no cross-core hops, no per-shard
	// registries.
	HostShards int
	// ShardRouteCPU is the cost of handing one parsed command to a shard
	// core (key hash + handoff), charged per cross-core hop on the core that
	// owns the connection: the dispatch core, or the client's routing core
	// when RouteListeners > 1.
	//
	// Nic-KV's shadow replica (NIC-served reads, §IV-A ablation) mirrors
	// the host's shard layout and pays the same three prices for its
	// handoffs, on ARM cores whose speed factor makes them dearer.
	ShardRouteCPU sim.Duration
	// ShardMergeCPU is the dispatch-core cost of merging one command
	// completed on a shard core back into the serialized stream (reply
	// ordering + replication append), charged per cross-core hop.
	ShardMergeCPU sim.Duration
	// ShardFenceCPU is the cost of a cross-shard fence (KEYS, DBSIZE,
	// FLUSHALL, multi-shard MSET/DEL, PSYNC) per shard core fenced: the
	// fan-in coordination each one pays.
	ShardFenceCPU sim.Duration
	// RouteListeners is the number of per-listener routing procs a sharded
	// Host-KV node runs in front of the dispatch proc. With 1 (or 0) the
	// dispatch proc owns every connection: it parses, routes and merges.
	// With N > 1 (and HostShards > 1) inbound
	// client connections are pinned round-robin to N routing procs, each on
	// its own core: the routing proc pays the transport receive path, RESP
	// parse, classification and the shard handoff, while the dispatch proc
	// shrinks to the merge/order stage — the single serialized replication
	// order, write gating and barrier admission. Ignored when HostShards <= 1.
	RouteListeners int
	// SlotCheckCPU is the per-command cost of the hash-slot ownership check
	// a cluster-mode node performs at admission (CRC16 over the key's
	// hashtag plus the routing-table lookup). Charged only when the node is
	// part of a multi-master slot cluster; single-master deployments never
	// pay it.
	SlotCheckCPU sim.Duration

	// ForkCPU is the cost on the master of starting the persistence child
	// (paper step 2 of initial sync).
	ForkCPU sim.Duration

	// ---- Background activity (tail-latency sources) ----

	// CronPeriod is the serverCron interval (Redis: 1/hz, default hz=10).
	CronPeriod sim.Duration
	// CronCPU is the CPU consumed per cron tick (expired-key sampling,
	// rehash step, stats).
	CronCPU sim.Duration
	// ExecJitterSigma is the multiplicative log-normal-ish jitter applied to
	// command execution (cache misses, allocator); 0 disables.
	ExecJitterSigma float64

	// ---- Failure detection (§III-D) ----

	// ProbePeriod is how often Nic-KV probes master and slaves (paper: 1s).
	ProbePeriod sim.Duration
	// WaitingTime is the reply deadline after which a node is declared
	// crashed (paper parameter waiting-time).
	WaitingTime sim.Duration
	// ProbeCPU is the cost of sending/answering one probe.
	ProbeCPU sim.Duration
	// RetryTimeout is how long a connection tolerates a streak of unacked
	// sends (drops, partitions, down peers) before it errors out and is torn
	// down: the retry_cnt × retransmission-timeout exhaustion window of an
	// RDMA RC QP, and the RTO escalation of the kernel TCP model.
	RetryTimeout sim.Duration

	// ---- Client-side caching / invalidation tracking (CLIENT TRACKING) ----
	// Both prices are charged only on behalf of connections that turned
	// tracking on; deployments that never negotiate CLIENT TRACKING pay
	// nothing. Interest tables hold tracking.New's default bound.

	// TrackInterestCPU is the server-side cost of recording one tracked
	// read's key interest: the table insert in local (in-band) mode, or
	// building the interest-forward frame to Nic-KV in redirect mode.
	TrackInterestCPU sim.Duration
	// NicInvalidateCPU is the Nic-KV ARM-core cost of building and posting
	// one invalidation push to one subscriber (host-side pushes use
	// ReplyBuildCPU — they ride the ordinary reply path).
	NicInvalidateCPU sim.Duration

	// ---- Client model ----

	// ClientThinkCPU is the client-side cost between receiving a reply and
	// issuing the next request (redis-benchmark closed loop).
	ClientThinkCPU sim.Duration
	// ClientWakeup is the client-side wakeup cost on reply arrival.
	ClientWakeup sim.Duration
}

// Default returns the paper-calibrated parameter set. See the package
// comment for the anchoring points.
func Default() Params {
	return Params{
		HostCoreSpeed: 1.0,
		NICCoreSpeed:  0.6,
		NICCores:      8,

		LinkBandwidthBps: 100e9,
		WireLatency:      600 * sim.Nanosecond,
		NICSwitchLatency: 250 * sim.Nanosecond,
		PCIeLatency:      350 * sim.Nanosecond,

		RDMASenderProc:   300 * sim.Nanosecond,
		RDMAReceiverProc: 300 * sim.Nanosecond,
		CPUPostWR:        150 * sim.Nanosecond,
		CPUCompletion:    350 * sim.Nanosecond,
		CompChannelWake:  2500 * sim.Nanosecond,

		TCPRxCPU:        2900 * sim.Nanosecond,
		TCPTxCPU:        2400 * sim.Nanosecond,
		TCPPerByteCPU:   0.35,
		TCPStackLatency: 1500 * sim.Nanosecond,
		TCPWakeup:       1200 * sim.Nanosecond,

		CmdParseCPU:     350 * sim.Nanosecond,
		CmdParsePerByte: 0.08,
		CmdExecSetCPU:   1550 * sim.Nanosecond,
		CmdExecGetCPU:   1500 * sim.Nanosecond,
		CmdExecPerByte:  0.10,
		ReplyBuildCPU:   250 * sim.Nanosecond,

		ReplFeedSlaveCPU:  105 * sim.Nanosecond,
		ReplFeedJitterP:   0.006,
		ReplFeedJitterCPU: 4000 * sim.Nanosecond,
		ReplOffloadReqCPU: 250 * sim.Nanosecond,
		NicParseReqCPU:    200 * sim.Nanosecond,
		NicFeedSlaveCPU:   200 * sim.Nanosecond,
		SlaveApplyCPU:     900 * sim.Nanosecond,
		ReplBatchMaxCmds:  1,
		RDBPerByte:        0.6,
		ForkCPU:           2 * sim.Millisecond,

		HostShards:     1,
		ShardRouteCPU:  120 * sim.Nanosecond,
		ShardMergeCPU:  150 * sim.Nanosecond,
		ShardFenceCPU:  200 * sim.Nanosecond,
		RouteListeners: 1,
		SlotCheckCPU:   80 * sim.Nanosecond,

		CronPeriod:      100 * sim.Millisecond,
		CronCPU:         60 * sim.Microsecond,
		ExecJitterSigma: 0.25,

		ProbePeriod:  1 * sim.Second,
		WaitingTime:  2 * sim.Second,
		ProbeCPU:     1 * sim.Microsecond,
		RetryTimeout: 3 * sim.Second,

		TrackInterestCPU: 100 * sim.Nanosecond,
		NicInvalidateCPU: 200 * sim.Nanosecond,

		ClientThinkCPU: 300 * sim.Nanosecond,
		ClientWakeup:   1500 * sim.Nanosecond,
	}
}

// TransferTime reports the serialization delay of size bytes on the link.
func (p *Params) TransferTime(size int) sim.Duration {
	if size <= 0 {
		return 0
	}
	ns := float64(size) * 8 / p.LinkBandwidthBps * 1e9
	return sim.Duration(ns + 0.5)
}

// TCPMsgCPURx reports total receive-side CPU for a message of size bytes.
func (p *Params) TCPMsgCPURx(size int) sim.Duration {
	return p.TCPRxCPU + sim.Duration(float64(size)*p.TCPPerByteCPU+0.5)
}

// TCPMsgCPUTx reports total send-side CPU for a message of size bytes.
func (p *Params) TCPMsgCPUTx(size int) sim.Duration {
	return p.TCPTxCPU + sim.Duration(float64(size)*p.TCPPerByteCPU+0.5)
}

// ParseCost reports the RESP parse cost of a command of size bytes.
func (p *Params) ParseCost(size int) sim.Duration {
	return p.CmdParseCPU + sim.Duration(float64(size)*p.CmdParsePerByte+0.5)
}
