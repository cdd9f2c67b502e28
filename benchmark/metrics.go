package main

import (
	"math"
	"sort"

	"skv/internal/sim"
	"skv/internal/stats"
)

// Clocks. Every number the benchmark prints uses exactly one of them.
const (
	clockVirtual = "virtual" // what the modelled hardware does; repeats exactly per seed
	clockHost    = "host"    // what the simulator / the real netserver costs on this machine
	clockCount   = "count"   // a count or a ratio of counts; repeats to 4+ digits
	clockMixed   = "virtual|wall"
)

// metricDef names one metric. Bound (end-to-end only) is the share of the
// parent's median by which the metric may worsen before a change counts as
// a regression; BENCHMARK.json carries the same numbers and the smoke test
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Clock  string
}

// endToEnd is what a user of the system sees. kops/p50_us/p99_us are
// virtual time on the four sim workloads and wall clock on net-loopback;
// the contract takes one bound per metric, so each carries the looser
// (net-loopback) bound and the sim workloads lean on the exact-repeat check.
var endToEnd = []metricDef{
	{"kops", "kops/s", "higher", 0.25, clockMixed},
	{"p50_us", "us", "lower", 0.25, clockMixed},
	{"p99_us", "us", "lower", 0.25, clockMixed},
	{"host_cpu_ns_per_op", "ns", "lower", 0.25, clockHost},
	{"host_allocs_per_op", "allocs", "lower", 0.01, clockCount},
	{"host_bytes_per_op", "B", "lower", 0.01, clockCount},
	{"host_heap_mb", "MB", "lower", 0.05, clockCount},
	{"setup_s", "s", "lower", 0.25, clockHost},
}

// perLayer is reported by the traced run; layers are the module names.
// A metric a workload bypasses reads 0 there — that is the prediction.
var perLayer = []metricDef{
	{Name: "sim.events_per_op", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "sim.sched_ns_per_event", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "sim.sched_allocs_per_event", Unit: "allocs", Better: "lower", Clock: clockCount},
	{Name: "fabric.msgs_per_op", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "fabric.bytes_per_op", Unit: "B", Better: "lower", Clock: clockCount},
	{Name: "fabric.send_ns_per_msg", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "fabric.send_allocs_per_msg", Unit: "allocs", Better: "lower", Clock: clockCount},
	{Name: "rdma.master_wrs_per_write", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "rdma.nic_wrs_per_write", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "rdma.master_cq_wakeups_per_op", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "rdma.wr_ns", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "rdma.wr_allocs", Unit: "allocs", Better: "lower", Clock: clockCount},
	{Name: "rconn.msg_ns", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "rconn.msg_allocs", Unit: "allocs", Better: "lower", Clock: clockCount},
	{Name: "resp.parse_ns_per_cmd", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "resp.parse_allocs_per_cmd", Unit: "allocs", Better: "lower", Clock: clockCount},
	{Name: "resp.encode_ns_per_cmd", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "store.set_ns", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "store.get_ns", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "store.allocs_per_set", Unit: "allocs", Better: "lower", Clock: clockCount},
	{Name: "store.allocs_per_get", Unit: "allocs", Better: "lower", Clock: clockCount},
	{Name: "replstream.cmds_per_flush", Unit: "count", Better: "higher", Clock: clockCount},
	{Name: "replstream.append_ns_per_cmd", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "replstream.apply_ns_per_cmd", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "server.dispatch_util", Unit: "ratio", Better: "lower", Clock: clockVirtual},
	{Name: "server.route_util_max", Unit: "ratio", Better: "lower", Clock: clockVirtual},
	{Name: "server.shard_util_max", Unit: "ratio", Better: "lower", Clock: clockVirtual},
	{Name: "server.set_service_us", Unit: "us", Better: "lower", Clock: clockVirtual},
	{Name: "server.get_service_us", Unit: "us", Better: "lower", Clock: clockVirtual},
	{Name: "server.shard_barriers", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "core.nic_util", Unit: "ratio", Better: "lower", Clock: clockVirtual},
	{Name: "core.offload_reqs_per_write", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "core.nic_stream_frames_per_write", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "core.gate_releases_per_write", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "core.slave_lag_bytes_max", Unit: "B", Better: "lower", Clock: clockCount},
	{Name: "consistency.parked_per_write", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "consistency.parked_at_end", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "consistency.gate_ns_per_write", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "slots.moved_per_kop", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "slots.hash_ns_per_key", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "workload.gen_ns_per_op", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "workload.group_balance", Unit: "ratio", Better: "higher", Clock: clockCount},
	{Name: "workload.p999_us", Unit: "us", Better: "lower", Clock: clockMixed},
	{Name: "netserver.client_floor_ns_per_op", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "netserver.server_ns_per_op", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "netserver.d1_rtt_us", Unit: "us", Better: "lower", Clock: clockHost},
	{Name: "cluster.build_s", Unit: "s", Better: "lower", Clock: clockHost},
	{Name: "cluster.preload_s", Unit: "s", Better: "lower", Clock: clockHost},
	{Name: "cluster.sync_s", Unit: "s", Better: "lower", Clock: clockHost},
	{Name: "cluster.sync_events", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "model.fig11_tput_gain_pct", Unit: "%", Better: "higher", Clock: clockVirtual},
	{Name: "model.fig11_p99_cut_pct", Unit: "%", Better: "higher", Clock: clockVirtual},
	{Name: "trace.unattributed_ns_per_op", Unit: "ns", Better: "lower", Clock: clockHost},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Clock: clockHost},
	{Name: "host.ref_kernel_ms", Unit: "ms", Better: "lower", Clock: clockHost},
}

// sample is one reported value, the number of samples behind it and, for a
// median over repetitions, the range they spanned.
type sample struct {
	V      float64
	N      int
	Lo, Hi float64
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileSorted is the nearest-rank percentile of sorted samples (the
// definition stats.Histogram uses).
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// histQuantileUs reports the p-th percentile of h in microseconds,
// interpolated inside the bucket the nearest-rank percentile falls in.
// Histogram.Percentile alone answers to its 100 ns bucket floor, which
// hides any shift smaller than a bucket; spreading the bucket's samples
// evenly across its width makes the number move with the distribution.
// Bucket occupancy is recovered through the public API by asking for the
// percentile of exact ranks.
func histQuantileUs(h *stats.Histogram, p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	floor := h.Percentile(p)
	atRank := func(r uint64) sim.Duration { return h.Percentile((float64(r) - 0.5) / float64(n) * 100) }
	// first = lowest rank inside the bucket, last = highest.
	first := uint64(sort.Search(int(n), func(i int) bool { return atRank(uint64(i)+1) >= floor })) + 1
	last := uint64(sort.Search(int(n), func(i int) bool { return atRank(uint64(i)+1) > floor }))
	width := 100 * sim.Nanosecond
	switch {
	case floor >= 100*sim.Millisecond:
		width = sim.Millisecond
	case floor >= sim.Millisecond:
		width = 10 * sim.Microsecond
	}
	target := p / 100 * float64(n)
	frac := (target - float64(first-1)) / float64(last-first+1)
	frac = math.Max(0, math.Min(1, frac))
	return (float64(floor) + frac*float64(width)) / 1e3
}
