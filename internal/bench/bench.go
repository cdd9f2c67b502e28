// Package bench regenerates every figure of the paper's evaluation
// (§II-A Fig 3, §III-C Fig 7, §V Figs 10–14) plus the ablations DESIGN.md
// calls out. Each experiment returns a table whose rows mirror the series
// the paper plots; EXPERIMENTS.md records the paper-vs-measured comparison.
package bench

import (
	"fmt"
	"strings"

	"skv/internal/cluster"
	"skv/internal/core"
	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/rdma"
	"skv/internal/sim"
	"skv/internal/stats"
)

// Experiment is one reproduced figure: a titled table plus key
// machine-readable metrics (consumed by the root benchmark harness).
type Experiment struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Metrics holds the headline numbers, e.g. "tput_gain_pct_8c".
	Metrics map[string]float64
}

// metric records one headline number.
func (e *Experiment) metric(key string, v float64) {
	if e.Metrics == nil {
		e.Metrics = make(map[string]float64)
	}
	e.Metrics[key] = v
}

// String renders the experiment as an aligned text table.
func (e *Experiment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", e.ID, e.Title)
	widths := make([]int, len(e.Header))
	for i, h := range e.Header {
		widths[i] = len(h)
	}
	for _, row := range e.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(e.Header)
	for _, row := range e.Rows {
		writeRow(row)
	}
	for _, n := range e.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Standard measurement windows (virtual time). Vars, not consts: smoke mode
// shrinks them so CI can exercise every experiment end-to-end in seconds.
var (
	warmup  = 50 * sim.Millisecond
	measure = 300 * sim.Millisecond
	smoke   bool
)

// SetSmoke switches the package into smoke mode: tiny measurement windows
// and shortened failure-scenario horizons (with a proportionally faster
// failure detector, so the timeline experiments still see their events).
// The numbers that come out are statistically meaningless — smoke mode
// exists to prove in CI that every experiment builds its cluster, runs, and
// renders, not to regenerate the figures.
func SetSmoke() {
	smoke = true
	warmup = 5 * sim.Millisecond
	measure = 25 * sim.Millisecond
}

func f1(v float64) string   { return fmt.Sprintf("%.1f", v) }
func kops(v float64) string { return fmt.Sprintf("%.1f", v/1000) }

// run is the one build → sync → measure sequence of every experiment. prep,
// when given, sees the synced cluster before the measurement starts the
// clients: it preloads a keyspace, snapshots a counter, schedules a migration.
func run(cfg cluster.Config, prep ...func(*cluster.Cluster)) (*cluster.Cluster, cluster.Result) {
	c := cluster.Build(cfg)
	if !c.AwaitReplication(5 * sim.Second) {
		panic(fmt.Sprintf("bench: replication never converged for %+v", cfg))
	}
	for _, f := range prep {
		f(c)
	}
	return c, c.Measure(warmup, measure)
}

// Fig3 measures RDMA WRITE latency for the three paths of the paper's
// Fig 3: between two hosts, from the remote host to the SmartNIC, and from
// the local host to the SmartNIC.
func Fig3() *Experiment {
	sizes := []int{8, 64, 256, 1024, 4096}
	e := &Experiment{
		ID:     "fig3",
		Title:  "RDMA WRITE latency (µs) — the off-path SmartNIC looks like a separate endpoint",
		Header: append([]string{"path"}, sizesHeader(sizes)...),
		Notes: []string{
			"paper: host→local SmartNIC is only a little lower than host↔host; remote→SmartNIC slightly higher",
		},
	}

	paths := []struct {
		name string
		src  func(a, b *fabric.Machine) *fabric.Endpoint
		dst  func(a, b *fabric.Machine) *fabric.Endpoint
	}{
		{"host ↔ host", func(a, b *fabric.Machine) *fabric.Endpoint { return b.Host },
			func(a, b *fabric.Machine) *fabric.Endpoint { return a.Host }},
		{"remote host → SmartNIC", func(a, b *fabric.Machine) *fabric.Endpoint { return b.Host },
			func(a, b *fabric.Machine) *fabric.Endpoint { return a.NIC }},
		{"local host → SmartNIC", func(a, b *fabric.Machine) *fabric.Endpoint { return a.Host },
			func(a, b *fabric.Machine) *fabric.Endpoint { return a.NIC }},
	}

	keys := []string{"host_host", "remote_to_nic", "local_to_nic"}
	for pi, path := range paths {
		row := []string{path.name}
		for _, size := range sizes {
			lat := writeLatency(path.src, path.dst, size)
			row = append(row, f1(lat.Micros()))
			if size == 64 {
				e.metric(keys[pi]+"_64B_us", lat.Micros())
			}
		}
		e.Rows = append(e.Rows, row)
	}
	return e
}

func sizesHeader(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = fmt.Sprintf("%dB", s)
	}
	return out
}

// writeLatency measures mean one-way WRITE_WITH_IMM latency (post → remote
// completion) over 100 operations, ib_write_lat style with CQ polling.
func writeLatency(srcSel, dstSel func(a, b *fabric.Machine) *fabric.Endpoint, size int) sim.Duration {
	p := model.Default()
	eng := sim.New(31)
	net := fabric.New(eng, &p)
	a := net.NewMachine("a", true)
	b := net.NewMachine("b", false)
	src, dst := srcSel(a, b), dstSel(a, b)

	speed := func(ep *fabric.Endpoint) float64 {
		if ep.Kind() == fabric.KindNIC {
			return p.NICCoreSpeed
		}
		return p.HostCoreSpeed
	}
	sdev := rdma.NewDevice(net, src, sim.NewCore(eng, "s", speed(src)))
	ddev := rdma.NewDevice(net, dst, sim.NewCore(eng, "d", speed(dst)))

	var qp *rdma.QP
	var peer *rdma.QP
	ddev.Listen(1, func(q *rdma.QP) { peer = q })
	sdev.Connect(dst, 1, nil, nil, func(q *rdma.QP, err error) {
		if err != nil {
			panic(err)
		}
		qp = q
	})
	eng.Run(0)
	mr := ddev.AllocPD().RegisterMR(size + 64)

	const iters = 100
	var total sim.Duration
	done := 0
	var postAt sim.Time
	var post func()
	peer.RecvCQ.OnNotify(func() {
		peer.RecvCQ.Poll(0)
		total += eng.Now().Sub(postAt)
		done++
		if done < iters {
			post()
		}
	})
	peer.RecvCQ.RequestNotify()
	post = func() {
		peer.PostRecv(rdma.RecvWR{})
		peer.RecvCQ.RequestNotify()
		postAt = eng.Now()
		_ = qp.PostSend(rdma.SendWR{
			Op: rdma.OpWriteImm, Data: make([]byte, size),
			RemoteKey: mr.RKey(), RemoteOff: 0, Imm: uint32(size),
		})
	}
	eng.After(0, post)
	eng.Run(0)
	return total / iters
}

// Fig7 reproduces the motivating measurement: RDMA-Redis SET performance
// with 0 vs 3 slaves (§III-C Fig 7: tail latency grows by more than 25%).
func Fig7() *Experiment {
	e := &Experiment{
		ID:     "fig7",
		Title:  "RDMA-Redis SET degradation with 3 slaves (8 clients)",
		Header: []string{"slaves", "tput kops/s", "avg µs", "p99 µs"},
		Notes:  []string{"paper: with 3 slaves, p99 grows by more than 25%, throughput drops significantly"},
	}
	var results []cluster.Result
	for _, slaves := range []int{0, 3} {
		_, r := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: slaves, Clients: 8, Seed: 41})
		results = append(results, r)
		e.Rows = append(e.Rows, []string{
			fmt.Sprint(slaves), kops(r.Throughput), f1(r.Avg.Micros()), f1(r.P99.Micros()),
		})
	}
	e.metric("p99_increase_pct", (results[1].P99.Micros()/results[0].P99.Micros()-1)*100)
	e.metric("avg_increase_pct", (results[1].Avg.Micros()/results[0].Avg.Micros()-1)*100)
	e.metric("tput_drop_pct", (1-results[1].Throughput/results[0].Throughput)*100)
	return e
}

var fig10Clients = []int{1, 2, 4, 8, 16, 32}

// Fig10a reproduces throughput vs concurrency for original Redis and
// RDMA-Redis (no slaves, SET).
func Fig10a() *Experiment {
	e := &Experiment{
		ID:     "fig10a",
		Title:  "SET throughput vs concurrent clients (kops/s), no slaves",
		Header: []string{"clients", "redis", "rdma-redis"},
		Notes: []string{
			"paper: Redis saturates ≈130 kops/s by ~2 clients; RDMA-Redis exceeds 330 kops/s",
		},
	}
	for _, n := range fig10Clients {
		_, rt := run(cluster.Config{Kind: cluster.KindTCP, Slaves: 0, Clients: n, Seed: 42})
		_, rr := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: 0, Clients: n, Seed: 42})
		e.Rows = append(e.Rows, []string{fmt.Sprint(n), kops(rt.Throughput), kops(rr.Throughput)})
		if n == 32 {
			e.metric("redis_kops_saturated", rt.Throughput/1000)
			e.metric("rdma_kops_saturated", rr.Throughput/1000)
		}
	}
	return e
}

// Fig10b reproduces p99 latency vs concurrency for the same sweep.
func Fig10b() *Experiment {
	e := &Experiment{
		ID:     "fig10b",
		Title:  "SET p99 latency vs concurrent clients (µs), no slaves",
		Header: []string{"clients", "redis", "rdma-redis"},
		Notes: []string{
			"paper: similar at low concurrency; Redis ≈2× RDMA-Redis at high concurrency",
		},
	}
	for _, n := range fig10Clients {
		_, rt := run(cluster.Config{Kind: cluster.KindTCP, Slaves: 0, Clients: n, Seed: 43})
		_, rr := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: 0, Clients: n, Seed: 43})
		e.Rows = append(e.Rows, []string{fmt.Sprint(n), f1(rt.P99.Micros()), f1(rr.P99.Micros())})
		if n == 32 {
			e.metric("latency_ratio_32c", rt.P99.Micros()/rr.P99.Micros())
		}
	}
	return e
}

// Fig11 is the headline experiment: SKV vs RDMA-Redis executing SETs with
// 1 master + 3 slaves at 4/8/16 clients.
func Fig11() *Experiment {
	e := &Experiment{
		ID:    "fig11",
		Title: "SET with 3 slaves: SKV vs RDMA-Redis",
		Header: []string{"clients",
			"rdma tput", "skv tput", "tput gain",
			"rdma avg µs", "skv avg µs",
			"rdma p99 µs", "skv p99 µs", "p99 cut"},
		Notes: []string{
			"paper @8 clients: throughput +14%, average latency −14%, tail latency −21%",
		},
	}
	for _, n := range []int{4, 8, 16} {
		_, rr := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: 3, Clients: n, Seed: 44})
		_, rs := run(cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: n, Seed: 44, SKV: core.DefaultConfig()})
		e.Rows = append(e.Rows, []string{
			fmt.Sprint(n),
			kops(rr.Throughput), kops(rs.Throughput),
			fmt.Sprintf("%+.1f%%", (rs.Throughput/rr.Throughput-1)*100),
			f1(rr.Avg.Micros()), f1(rs.Avg.Micros()),
			f1(rr.P99.Micros()), f1(rs.P99.Micros()),
			fmt.Sprintf("%+.1f%%", (rs.P99.Micros()/rr.P99.Micros()-1)*100),
		})
		if n == 8 {
			e.metric("tput_gain_pct_8c", (rs.Throughput/rr.Throughput-1)*100)
			e.metric("avg_cut_pct_8c", (1-rs.Avg.Micros()/rr.Avg.Micros())*100)
			e.metric("p99_cut_pct_8c", (1-rs.P99.Micros()/rr.P99.Micros())*100)
		}
	}
	return e
}

// Fig12 sweeps the value size (SET, 8 clients, 3 slaves).
func Fig12() *Experiment {
	e := &Experiment{
		ID:     "fig12",
		Title:  "SET throughput vs value size (kops/s), 8 clients, 3 slaves",
		Header: []string{"value", "rdma-redis", "skv"},
		Notes:  []string{"paper: SKV above RDMA-Redis at every value size"},
	}
	for _, size := range []int{64, 256, 1024, 4096, 16384} {
		_, rr := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: 3, Clients: 8, Seed: 45, ValueSize: size})
		_, rs := run(cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: 8, Seed: 45, ValueSize: size, SKV: core.DefaultConfig()})
		e.Rows = append(e.Rows, []string{
			fmt.Sprintf("%dB", size), kops(rr.Throughput), kops(rs.Throughput),
		})
		e.metric(fmt.Sprintf("gain_pct_%dB", size), (rs.Throughput/rr.Throughput-1)*100)
	}
	return e
}

// Fig13 runs the GET workload: the offload cannot help reads.
func Fig13() *Experiment {
	e := &Experiment{
		ID:     "fig13",
		Title:  "GET with 3 slaves: SKV vs RDMA-Redis",
		Header: []string{"clients", "rdma tput", "skv tput", "rdma p99 µs", "skv p99 µs"},
		Notes: []string{
			"paper: no difference — GETs are never replicated, both ≈340 kops/s at 8/16 clients",
		},
	}
	for _, n := range []int{4, 8, 16} {
		_, rr := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: 3, Clients: n, Seed: 46, GetRatio: 1.0})
		_, rs := run(cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: n, Seed: 46, GetRatio: 1.0, SKV: core.DefaultConfig()})
		e.Rows = append(e.Rows, []string{
			fmt.Sprint(n), kops(rr.Throughput), kops(rs.Throughput),
			f1(rr.P99.Micros()), f1(rs.P99.Micros()),
		})
		if n == 8 {
			e.metric("tput_ratio_8c", rs.Throughput/rr.Throughput)
		}
	}
	return e
}

// Fig14 reproduces the availability experiment: a slave's Host-KV crashes
// under SET load; Nic-KV detects it via probes, replication continues to
// the surviving slaves, the client never notices; the slave later recovers
// and is folded back in.
func Fig14() *Experiment {
	e := &Experiment{
		ID:     "fig14",
		Title:  "Throughput during slave failure (SKV, 8 clients, 3 slaves)",
		Header: []string{"t (s)", "tput kops/s", "valid slaves", "event"},
		Notes: []string{
			"paper: crash detected at ~4s, recovery at ~9s, throughput stays above 300 kops/s, client unaware",
		},
	}
	horizon := 12 * sim.Second
	crashAfter := 1500 * sim.Millisecond
	recoverAfter := 6500 * sim.Millisecond
	var p *model.Params
	if smoke {
		// Shrink the outage script and speed the detector up to match, so
		// the crash/detect/recover transitions still happen on the short
		// horizon.
		horizon, crashAfter, recoverAfter = 3*sim.Second, 500*sim.Millisecond, 1500*sim.Millisecond
		pp := model.Default()
		pp.ProbePeriod = 100 * sim.Millisecond
		pp.WaitingTime = 300 * sim.Millisecond
		p = &pp
	}
	c := cluster.Build(cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: 8, Seed: 47, Params: p, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(5 * sim.Second) {
		panic("fig14: replication never converged")
	}
	series := stats.NewTimeSeries(500 * sim.Millisecond)
	for _, cl := range c.Clients {
		cl.SetSeries(series)
	}
	c.StartClients()
	base := c.Eng.Now()
	crashAt := base.Add(crashAfter)
	recoverAt := base.Add(recoverAfter)
	g := c.Groups[0]
	c.Eng.At(crashAt, func() { g.Slaves[1].Crash() })
	c.Eng.At(recoverAt, func() { g.Slaves[1].Recover() })

	// Sample the valid-slave count every 500ms.
	type sample struct {
		t     sim.Time
		valid int
	}
	var samples []sample
	for off := sim.Duration(0); off < horizon; off += 500 * sim.Millisecond {
		off := off
		c.Eng.At(base.Add(off), func() {
			samples = append(samples, sample{c.Eng.Now(), g.NicKV.ValidSlaves()})
		})
	}
	c.Eng.Run(base.Add(horizon))
	var errs uint64
	for _, cl := range c.Clients {
		errs += cl.Stats().ErrReplies
	}

	rates := series.Rates()
	for i, s := range samples {
		rate := 0.0
		bucket := int(sim.Duration(s.t) / series.Interval())
		if bucket < len(rates) {
			rate = rates[bucket]
		}
		event := ""
		switch {
		case s.t <= crashAt && crashAt < s.t.Add(500*sim.Millisecond):
			event = "slave1 Host-KV crashes"
		case i > 0 && samples[i-1].valid == 3 && s.valid == 2:
			event = "Nic-KV detects the failure (invalid flag set)"
		case s.t <= recoverAt && recoverAt < s.t.Add(500*sim.Millisecond):
			event = "slave1 recovers"
		case i > 0 && samples[i-1].valid == 2 && s.valid == 3:
			event = "Nic-KV removes the invalid flag"
		}
		e.Rows = append(e.Rows, []string{
			fmt.Sprintf("%.1f", sim.Duration(s.t-base).Seconds()),
			kops(rate), fmt.Sprint(s.valid), event,
		})
	}
	e.Notes = append(e.Notes, fmt.Sprintf("client error replies during the whole run: %d", errs))
	e.metric("client_errors", float64(errs))
	minRate := -1.0
	// Ignore the first and last (partial) buckets.
	for i := 1; i < len(rates)-1; i++ {
		if minRate < 0 || rates[i] < minRate {
			minRate = rates[i]
		}
	}
	e.metric("min_kops", minRate/1000)
	for i := 1; i < len(samples); i++ {
		if samples[i-1].valid == 3 && samples[i].valid == 2 {
			e.metric("detect_s", sim.Duration(samples[i].t-base).Seconds())
		}
		if samples[i-1].valid == 2 && samples[i].valid == 3 {
			e.metric("rejoin_s", sim.Duration(samples[i].t-base).Seconds())
		}
	}
	return e
}
