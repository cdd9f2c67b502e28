package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"skv/internal/cluster"
	"skv/internal/consistency"
	"skv/internal/core"
	"skv/internal/metrics"
	"skv/internal/model"
	"skv/internal/obj"
	"skv/internal/resp"
	"skv/internal/server"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/stats"
	"skv/internal/workload"
)

const (
	keySpace  = 10_000
	valueSize = 64
	clients   = 8
)

func kvKey(i int) string { return fmt.Sprintf("key:%010d", i) }

// kvValue is the payload workload.Generator writes, so a preloaded key
// already holds what every later SET stores.
func kvValue(size int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = 'a' + byte(i%26)
	}
	return v
}

// simWorkload is one closed-loop deployment measured in virtual time.
type simWorkload struct {
	name           string
	warmup, window sim.Duration
	params         func(p *model.Params)
	config         cluster.Config // Seed and Params filled per repetition
	fig11          bool           // also run the RDMA-Redis baseline for model.*
}

// Window lengths give ≈2 s of host time per repetition and ≥500 samples
// beyond p99 in every workload.
var simWorkloads = []*simWorkload{
	{
		name: "set-repl", warmup: 50 * sim.Millisecond, window: 300 * sim.Millisecond, fig11: true,
		config: cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: clients, SKV: core.DefaultConfig()},
	},
	{
		name: "get-host", warmup: 50 * sim.Millisecond, window: 1000 * sim.Millisecond,
		config: cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: clients, GetRatio: 1, SKV: core.DefaultConfig()},
	},
	{
		name: "cluster-mixed", warmup: 20 * sim.Millisecond, window: 80 * sim.Millisecond,
		params: func(p *model.Params) {
			p.HostShards = 4
			p.RouteListeners = 2
			p.ReplBatchMaxCmds = 8
			p.ReplBatchMaxDelay = 5 * sim.Microsecond
		},
		config: cluster.Config{Kind: cluster.KindSKV, Clients: clients, Pipeline: 8, GetRatio: 0.5, Zipf: true,
			SKV: core.DefaultConfig(), Cluster: cluster.ClusterOpts{Masters: 2, SlavesPerMaster: 1}},
	},
	{
		name: "quorum-set", warmup: 50 * sim.Millisecond, window: 500 * sim.Millisecond,
		config: cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: clients, SKV: core.DefaultConfig(),
			Consistency: cluster.ConsistencyOpts{Level: consistency.Quorum, Quorum: 2}},
	},
}

func (w *simWorkload) modelParams() model.Params {
	p := model.Default()
	if w.params != nil {
		w.params(&p)
	}
	return p
}

func (w *simWorkload) build(o options, kind cluster.Kind) *cluster.Cluster {
	p, cfg := w.modelParams(), w.config
	cfg.Kind, cfg.Seed, cfg.Params = kind, o.seed, &p
	cfg.KeySpace, cfg.ValueSize = keySpace, valueSize
	if kind != cluster.KindSKV {
		cfg.SKV = core.Config{}
	}
	return cluster.Build(cfg)
}

func (w *simWorkload) windows(o options) (warmup, window sim.Duration) {
	if o.smoke {
		return 2 * sim.Millisecond, 5 * sim.Millisecond
	}
	return w.warmup, w.window
}

// replGroup is one master with its slaves, whatever the topology.
type replGroup struct {
	master *server.Server
	slaves []*server.Server
}

func groupsOf(c *cluster.Cluster) []replGroup {
	if len(c.Groups) == 0 {
		return []replGroup{{c.Master, c.Slaves}}
	}
	var gs []replGroup
	for _, g := range c.Groups {
		gs = append(gs, replGroup{g.Master, g.Slaves})
	}
	return gs
}

// ownerOf is the group serving key.
func ownerOf(c *cluster.Cluster, gs []replGroup, key string) replGroup {
	if c.SlotMap == nil {
		return gs[0]
	}
	return gs[c.SlotMap.Owner(slots.Slot([]byte(key)))]
}

// setup is everything before timing: build, preload every key into its
// owning master, full-sync the slaves, start the clients and warm up.
// Client histograms discard the warm-up, so the window that follows holds
// only its own samples.
func (w *simWorkload) setup(o options, kind cluster.Kind, tr *tracer) (*cluster.Cluster, error) {
	warmup, _ := w.windows(o)
	sp := tr.begin("build")
	c := w.build(o, kind)
	tr.end(sp, nil)

	sp = tr.begin("preload")
	gs, value := groupsOf(c), kvValue(valueSize)
	for i := 0; i < keySpace; i++ {
		key := kvKey(i)
		ownerOf(c, gs, key).master.Store().Exec(0, [][]byte{[]byte("SET"), []byte(key), value})
	}
	tr.end(sp, nil)

	sp = tr.begin("sync")
	if !c.AwaitReplication(5 * sim.Second) {
		return nil, fmt.Errorf("%s: replication never converged", w.name)
	}
	tr.end(sp, map[string]float64{"sim.events": float64(c.Eng.Processed)})

	sp = tr.begin("warmup")
	start := c.Eng.Now().Add(warmup)
	for _, cl := range c.Clients {
		cl.SetWarmup(start)
	}
	c.StartClients()
	c.Run(start)
	tr.end(sp, nil)
	return c, nil
}

// clientHist merges every client's latency histogram (post-warm-up samples).
func clientHist(c *cluster.Cluster) *stats.Histogram {
	agg := stats.NewHistogram()
	for _, cl := range c.Clients {
		agg.Merge(cl.Histogram())
	}
	return agg
}

// rep is one repetition's measurements.
type rep struct {
	ops, failed        uint64
	kops, p50us, p99us float64
	p999us             float64
	host               hostDelta
	heapMB, setupS     float64
	events             uint64
	counts             map[string]float64 // count-based per-layer metrics
	queueDepth         int                // engine events pending at window end
	ref                time.Duration      // reference kernel CPU, mean of before and after the window
}

func (w *simWorkload) rep(o options, tr *tracer) (rep, error) {
	_, window := w.windows(o)
	runtime.GC()
	t0 := time.Now()
	root := tr.begin("rep")
	c, err := w.setup(o, cluster.KindSKV, tr)
	if err != nil {
		return rep{}, err
	}
	setup := time.Since(t0)

	sp := tr.begin("measure")
	before, ev0 := c.Snapshots(), c.Eng.Processed
	ref := refKernel()
	mark := windowStart()
	res := c.Measure(0, window)
	host := mark.stop()
	ref = (ref + refKernel()) / 2
	heap := liveHeapMB()
	r := rep{
		ops: res.Ops, kops: res.Throughput / 1e3, host: host, heapMB: heap, setupS: setup.Seconds(),
		events: c.Eng.Processed - ev0, queueDepth: c.Eng.Pending(), ref: ref,
	}
	agg := clientHist(c)
	r.p50us, r.p99us, r.p999us = histQuantileUs(agg, 50), histQuantileUs(agg, 99), histQuantileUs(agg, 99.9)
	r.counts = windowCounts(snapDelta{before, c.Snapshots()}, res, r.events)
	tr.end(sp, r.counts)

	sp = tr.begin("drain+verify")
	r.failed = res.ErrReplies
	err = drainAndVerify(c, o.seed)
	tr.end(sp, nil)
	tr.end(root, nil)
	if res.Ops == 0 {
		return r, fmt.Errorf("%s: no operation completed in the window", w.name)
	}
	return r, err
}

// drainAndVerify stops the clients, lets replication catch up, and checks
// the outputs: every slave applied exactly what its master streamed, no
// write reply is still parked, every slave's keyspace equals its master's,
// and sampled GETs on every node return the preloaded value.
func drainAndVerify(c *cluster.Cluster, seed int64) error {
	for _, cl := range c.Clients {
		cl.Stop()
	}
	gs := groupsOf(c)
	drained := func() bool {
		for _, g := range gs {
			streamed := g.master.Metrics().Counter("repl.stream.cmds").Value()
			for _, s := range g.slaves {
				if s.Metrics().Counter("slaveagent.applied").Value() != streamed {
					return false
				}
			}
			if g.master.Acks().Parked() != 0 {
				return false
			}
		}
		return true
	}
	deadline := c.Eng.Now().Add(2 * sim.Second)
	for !drained() {
		if c.Eng.Now() >= deadline {
			return fmt.Errorf("verify: replication did not drain within 2 s of virtual time")
		}
		c.Run(c.Eng.Now().Add(sim.Millisecond))
	}
	for gi, g := range gs {
		ms := g.master.Store()
		for si, s := range g.slaves {
			ss := s.Store()
			if ss.DBSize(0) != ms.DBSize(0) {
				return fmt.Errorf("verify: group %d slave %d holds %d keys, master %d", gi, si, ss.DBSize(0), ms.DBSize(0))
			}
			var diverged string
			ms.EachEntry(func(dbi int, key string, _ *obj.Object, _ int64) bool {
				want, _ := ms.SerializedEntry(dbi, key)
				got, ok := ss.SerializedEntry(dbi, key)
				if !ok || !bytes.Equal(got, want) {
					diverged = key
				}
				return diverged == ""
			})
			if diverged != "" {
				return fmt.Errorf("verify: group %d slave %d diverges from its master at %s", gi, si, diverged)
			}
		}
	}
	want := resp.AppendBulk(nil, kvValue(valueSize))
	rnd := rand.New(rand.NewSource(seed))
	for i := 0; i < 64; i++ {
		key := kvKey(rnd.Intn(keySpace))
		g := ownerOf(c, gs, key)
		for _, node := range append([]*server.Server{g.master}, g.slaves...) {
			if got, _ := node.Store().Exec(0, [][]byte{[]byte("GET"), []byte(key)}); !bytes.Equal(got, want) {
				return fmt.Errorf("verify: GET %s on %s returned %q", key, node.Name(), got)
			}
		}
	}
	return nil
}

// snapDelta is the registries' movement across the timed window.
type snapDelta struct{ before, after []metrics.Snapshot }

func isMaster(node string) bool { return node == "master" || strings.HasSuffix(node, ".master") }
func isNIC(node string) bool    { return strings.HasSuffix(node, "/nic") }
func anyNode(string) bool       { return true }

// counter sums the window delta of the named counters over matching nodes.
func (d snapDelta) counter(match func(node string) bool, names ...string) float64 {
	var sum uint64
	for i, a := range d.after {
		if !match(a.Node) {
			continue
		}
		for _, name := range names {
			sum += a.Counters[name] - d.before[i].Counters[name]
		}
	}
	return float64(sum)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

var workRequests = []string{"rdma.wr.send", "rdma.wr.write", "rdma.wr.write_imm", "rdma.wr.read"}

// windowCounts derives the count-based per-layer metrics, plus the calls
// per op the attribution needs (keys prefixed "calls.").
func windowCounts(d snapDelta, res cluster.Result, events uint64) map[string]float64 {
	ops := float64(res.Ops)
	writes := d.counter(isMaster, "server.cmd.set.calls")
	flushes := d.counter(isMaster, "repl.flush.cmd_budget", "repl.flush.byte_budget", "repl.flush.quiesce", "repl.flush.forced")
	m := map[string]float64{
		"sim.events_per_op":                ratio(float64(events), ops),
		"fabric.msgs_per_op":               ratio(d.counter(anyNode, "fabric.tx.msgs"), ops),
		"fabric.bytes_per_op":              ratio(d.counter(anyNode, "fabric.tx.bytes"), ops),
		"rdma.master_wrs_per_write":        ratio(d.counter(isMaster, workRequests...), writes),
		"rdma.nic_wrs_per_write":           ratio(d.counter(isNIC, workRequests...), writes),
		"rdma.master_cq_wakeups_per_op":    ratio(d.counter(isMaster, "rdma.cq.wakeups"), ops),
		"replstream.cmds_per_flush":        ratio(d.counter(isMaster, "repl.stream.cmds"), flushes),
		"server.dispatch_util":             res.MasterUtil,
		"server.shard_barriers":            d.counter(anyNode, "server.shard.barriers"),
		"core.nic_util":                    res.NicUtil,
		"core.offload_reqs_per_write":      ratio(d.counter(isMaster, "hostkv.repl_reqs"), writes),
		"core.nic_stream_frames_per_write": ratio(d.counter(isNIC, "nickv.stream.sent"), writes),
		"core.gate_releases_per_write":     ratio(d.counter(isNIC, "nickv.gate.releases"), writes),
		"consistency.parked_per_write":     ratio(d.counter(isMaster, "consistency.writes_parked"), writes),
		"slots.moved_per_kop":              ratio(d.counter(anyNode, "server.cluster.moved")*1e3, ops),
		"workload.group_balance":           1,
		"calls.sets":                       ratio(writes, ops),
		"calls.gets":                       ratio(d.counter(isMaster, "server.cmd.get.calls"), ops),
		"calls.applied":                    ratio(d.counter(anyNode, "slaveagent.applied"), ops),
		"calls.streamed":                   ratio(d.counter(isMaster, "repl.stream.cmds"), ops),
		"calls.wrs":                        ratio(d.counter(anyNode, workRequests...), ops),
		"calls.rconn_msgs":                 ratio(d.counter(anyNode, "rdma.wr.write_imm"), ops),
		"counts.repl.stream.cmds":          d.counter(anyNode, "repl.stream.cmds"),
		"counts.hostkv.repl_reqs":          d.counter(anyNode, "hostkv.repl_reqs"),
		"counts.nickv.gate.queued":         d.counter(anyNode, "nickv.gate.queued"),
	}
	for _, u := range res.RouteUtils {
		m["server.route_util_max"] = max(m["server.route_util_max"], u)
	}
	for _, u := range res.ShardUtils {
		m["server.shard_util_max"] = max(m["server.shard_util_max"], u)
	}
	// Gauges and service histograms are read at window end.
	var setN, getN, setSum, getSum float64
	for _, a := range d.after {
		for name, g := range a.Gauges {
			if strings.HasPrefix(name, "nickv.lag.") {
				m["core.slave_lag_bytes_max"] = max(m["core.slave_lag_bytes_max"], float64(g))
			}
		}
		if !isMaster(a.Node) {
			continue
		}
		m["consistency.parked_at_end"] += float64(a.Gauges["consistency.parked_writes"])
		if h, ok := a.Hists["server.cmd.set.service"]; ok {
			setN, setSum = setN+float64(h.Count), setSum+float64(h.Count)*h.Mean.Micros()
		}
		if h, ok := a.Hists["server.cmd.get.service"]; ok {
			getN, getSum = getN+float64(h.Count), getSum+float64(h.Count)*h.Mean.Micros()
		}
	}
	m["server.set_service_us"], m["server.get_service_us"] = ratio(setSum, setN), ratio(getSum, getN)
	if len(res.GroupOps) > 0 {
		lo, hi := res.GroupOps[0], res.GroupOps[0]
		for _, n := range res.GroupOps {
			lo, hi = min(lo, n), max(hi, n)
		}
		m["workload.group_balance"] = ratio(float64(lo), float64(hi))
	}
	return m
}

// fig11 runs the RDMA-Redis baseline on the workload's deployment and
// reports SKV's throughput gain and p99 cut over it (paper: +14% / −21%).
func (w *simWorkload) fig11Deltas(o options, skv rep) (gainPct, p99CutPct float64, err error) {
	_, window := w.windows(o)
	c, err := w.setup(o, cluster.KindRDMA, nil)
	if err != nil {
		return 0, 0, err
	}
	base := c.Measure(0, window)
	return (ratio(skv.kops*1e3, base.Throughput) - 1) * 100, (1 - ratio(skv.p99us, histQuantileUs(clientHist(c), 99))) * 100, nil
}

// layers runs the traced repetition's layer replays and assembles every
// per-layer metric for a sim workload.
func (w *simWorkload) layers(o options, traced rep, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	for k, v := range traced.counts {
		if !strings.HasPrefix(k, "calls.") && !strings.HasPrefix(k, "counts.") {
			m[k] = v
		}
	}
	m["sim.host_ns_per_event"] = ratio(float64(traced.host.cpu.Nanoseconds()), float64(traced.events))
	m["workload.p999_us"] = traced.p999us
	m["cluster.build_s"], m["cluster.preload_s"], m["cluster.sync_s"] = tr.seconds("build"), tr.seconds("preload"), tr.seconds("sync")
	for _, s := range tr.spans {
		if s.Name == "sync" {
			m["cluster.sync_events"] = s.Counters["sim.events"]
		}
	}

	n := replayCalls(o)
	p, cfg := w.modelParams(), w.config
	newGen := func() *workload.Generator { // client 0's stream
		return workload.NewGenerator(o.seed+300, keySpace, valueSize, 1-cfg.GetRatio, cfg.Zipf)
	}
	root := tr.begin("replay")
	layer := func(name string, run func() cost) cost {
		sp := tr.begin("replay." + name)
		c := run()
		tr.end(sp, map[string]float64{"ns_per_call": c.ns, "allocs_per_call": c.allocs})
		return c
	}
	st := newStream(newGen(), n)
	cmdSize := len(st.cmds[0])
	simC := layer("sim", func() cost { return replaySim(10*n, max(traced.queueDepth, 1)) })
	fabC := layer("fabric", func() cost { return replayFabric(n, cmdSize) })
	rdmaC := layer("rdma", func() cost { return replayRDMA(n, cmdSize) })
	rconnC := layer("rconn", func() cost { return replayRconn(st) })
	parseC := layer("resp.parse", func() cost { return replayRespParse(st) })
	encodeC := layer("resp.encode", func() cost { return replayRespEncode(st) })
	setC := layer("store.set", func() cost { return replayStore(st, keySpace, st.sets) })
	getC := layer("store.get", func() cost { return replayStore(st, keySpace, st.gets) })
	var applyC cost
	appendC := layer("replstream", func() (c cost) {
		c, applyC = replayReplstream(st, p.ReplBatchMaxCmds)
		return c
	})
	gateC := layer("consistency", func() cost { return replayGate(n, clients) })
	slotC := layer("slots", func() cost { return replaySlots(st) })
	genC := layer("workload", func() cost { return replayGenerator(newGen(), n) })
	tr.end(root, nil)

	m["sim.sched_ns_per_event"], m["sim.sched_allocs_per_event"] = simC.ns, simC.allocs
	m["fabric.send_ns_per_msg"], m["fabric.send_allocs_per_msg"] = fabC.ns, fabC.allocs
	m["rdma.wr_ns"], m["rdma.wr_allocs"] = rdmaC.ns, rdmaC.allocs
	m["rconn.msg_ns"], m["rconn.msg_allocs"] = rconnC.ns, rconnC.allocs
	m["resp.parse_ns_per_cmd"], m["resp.parse_allocs_per_cmd"] = parseC.ns, parseC.allocs
	m["resp.encode_ns_per_cmd"] = encodeC.ns
	m["store.set_ns"], m["store.allocs_per_set"] = setC.ns, setC.allocs
	m["store.get_ns"], m["store.allocs_per_get"] = getC.ns, getC.allocs
	m["replstream.append_ns_per_cmd"], m["replstream.apply_ns_per_cmd"] = appendC.ns, applyC.ns
	m["consistency.gate_ns_per_write"] = gateC.ns
	m["slots.hash_ns_per_key"] = slotC.ns
	m["workload.gen_ns_per_op"] = genC.ns

	// Self time per op = exclusive replay cost × calls per op. The nested
	// transport layers are made exclusive of the lower-layer work their
	// replay caused; the pure layers schedule nothing.
	k := traced.counts
	exFab := fabC.ns - fabC.events*simC.ns
	exRdma := rdmaC.ns - rdmaC.fmsgs*exFab - rdmaC.events*simC.ns
	exRconn := rconnC.ns - rconnC.wrs*exRdma - rconnC.fmsgs*exFab - rconnC.events*simC.ns
	slotCalls := 0.0
	if cfg.Cluster.Masters > 1 {
		slotCalls = 2 // client routing + server admission
	}
	attributed := k["sim.events_per_op"]*simC.ns +
		k["fabric.msgs_per_op"]*exFab +
		k["calls.wrs"]*exRdma +
		k["calls.rconn_msgs"]*exRconn +
		parseC.ns + genC.ns + // one command parsed and one generated per op
		k["calls.sets"]*setC.ns + k["calls.gets"]*getC.ns + k["calls.applied"]*setC.ns +
		k["calls.streamed"]*appendC.ns + k["calls.applied"]*applyC.ns +
		k["consistency.parked_per_write"]*k["calls.sets"]*gateC.ns +
		slotCalls*slotC.ns
	m["trace.unattributed_ns_per_op"] = nsPerOp(traced) - attributed

	if w.fig11 {
		sp := tr.begin("model.fig11")
		var err error
		m["model.fig11_tput_gain_pct"], m["model.fig11_p99_cut_pct"], err = w.fig11Deltas(o, traced)
		tr.end(sp, nil)
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}
